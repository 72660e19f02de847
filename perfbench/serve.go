package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"quorumkit/internal/cluster"
	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/history"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/stats"
	"quorumkit/internal/store"
	"quorumkit/internal/strategy"
	"quorumkit/internal/topo"
)

// The served system: a 17-site ring with 17 chords at Majority(17). 17 is
// the largest size where the daemon's f=1 re-solve stays near a
// millisecond; at 19 sites column generation runs into its round cap and a
// re-solve takes ~0.5 s, which would drown the serving path.
const (
	serveSites  = 17
	serveChords = 17
	daemonEvery = 10 // ops between two full DaemonStep sweeps
	bootBudget  = 3  // resample budget of the boot strategy
)

// serveChurn is milder than the soak's on purpose: the soak's ring churn
// leaves too few granted ops to time.
var serveChurn = faults.ChurnConfig{SiteMTBF: 2000, SiteMTTR: 50, LinkMTBF: 1000, LinkMTTR: 50}

// serveSpec is a serving workload: a single closed-loop client replaying a
// seeded schedule of ops, churn and daemon sweeps.
type serveSpec struct {
	alpha    float64 // read fraction of the ops and the daemon's α
	strategy bool    // install a certified f=1 strategy at boot and re-solve it
	ops      int     // ops per repetition, per runtime
}

// schedule is the generated stimulus: the churn events due before each op
// and the op itself. It is identical for both runtimes.
type schedule struct {
	events [][]faults.ChurnEvent
	sites  []int
	reads  []bool
}

func makeSchedule(spec serveSpec, links int, seed uint64) schedule {
	churn := faults.NewChurn(rng.SubSeed(seed, 1), serveSites, links, serveChurn)
	src := rng.New(rng.SubSeed(seed, 2))
	s := schedule{
		events: make([][]faults.ChurnEvent, spec.ops),
		sites:  make([]int, spec.ops),
		reads:  make([]bool, spec.ops),
	}
	for i := 0; i < spec.ops; i++ {
		s.events[i] = churn.Step(float64(i))
		s.sites[i] = src.Intn(serveSites)
		s.reads[i] = src.Float64() < spec.alpha
	}
	return s
}

// servingRuntime is the part of the two cluster runtimes the benchmark
// drives.
type servingRuntime interface {
	EnableSelfHealing(cfg cluster.HealthConfig)
	InstallStrategy(st strategy.Strategy, assign quorum.Assignment, version int64, budget int, seed uint64) error
	ServeRead(x int) cluster.Outcome
	ServeWrite(x int, value int64) cluster.Outcome
	DaemonStep(x int) cluster.DaemonReport
	FailSite(i int)
	RepairSite(i int)
	FailLink(l int)
	RepairLink(l int)
	HealthCounters() stats.HealthCounters
	StrategyCounters() stats.StrategyCounters
	StoreCounters(x int) store.Counters
}

// messagesSent reads a runtime's cumulative message count.
func messagesSent(rt servingRuntime) int64 {
	switch r := rt.(type) {
	case *cluster.Cluster:
		return r.Stats().Sent
	case *cluster.Async:
		return r.MessagesSent()
	}
	panic(fmt.Sprintf("perfbench: unknown runtime %T", rt))
}

// serveSetup is everything a serving repetition needs before timing starts.
type serveSetup struct {
	spec  serveSpec
	sched schedule
	boot  strategy.Strategy
	det   *cluster.Cluster
	async *cluster.Async
	seed  uint64
}

// bootStrategy solves and certifies the strategy installed at boot: the
// daemon-shaped unit-capacity f=1 resilient capacity LP at Majority(n).
func bootStrategy(n int, alpha float64) (strategy.Strategy, error) {
	res, err := strategy.OptimizeResilientCapacity(unitMajority(n), strategy.SingleFr(alpha), 1, strategy.Options{})
	if err != nil {
		return strategy.Strategy{}, fmt.Errorf("boot strategy: %w", err)
	}
	if err := res.Certify(1e-6); err != nil {
		return strategy.Strategy{}, fmt.Errorf("boot strategy certificate: %w", err)
	}
	return res.Strategy, nil
}

// unitMajority is the n-site unit-vote, unit-capacity system at Majority(n).
func unitMajority(n int) strategy.System {
	votes := make([]int, n)
	unit := make([]float64, n)
	for i := range votes {
		votes[i], unit[i] = 1, 1
	}
	m := quorum.Majority(n)
	return strategy.System{Votes: votes, QR: m.QR, QW: m.QW, ReadCap: unit, WriteCap: unit, Latency: unit}
}

func healthConfig(spec serveSpec) cluster.HealthConfig {
	hc := cluster.DefaultHealthConfig()
	hc.Alpha = spec.alpha
	if spec.strategy {
		hc.Strategy = cluster.StrategyResolveConfig{Enabled: true, Resilience: 1}
	}
	return hc
}

// newServeSetup builds the topology, both runtimes, the boot strategy and
// the schedule.
func newServeSetup(spec serveSpec, seed uint64, tr *tracer) (*serveSetup, error) {
	sp := tr.begin("topo.build", -1, -1)
	g := topo.Build(serveSites, serveChords)
	tr.end(sp)
	s := &serveSetup{spec: spec, seed: seed}
	sp = tr.begin("faults.schedule", -1, -1)
	s.sched = makeSchedule(spec, g.M(), seed)
	tr.end(sp)
	if spec.strategy {
		sp = tr.begin("strategy.boot_solve", -1, -1)
		st, err := bootStrategy(serveSites, spec.alpha)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		s.boot = st
	}
	sp = tr.begin("cluster.new", -1, -1)
	defer tr.end(sp)
	det, err := cluster.New(graph.NewState(g, nil), quorum.Majority(serveSites))
	if err != nil {
		return nil, err
	}
	async, err := cluster.NewAsync(graph.NewState(g, nil), quorum.Majority(serveSites))
	if err != nil {
		return nil, err
	}
	s.det, s.async = det, async
	for _, rt := range []servingRuntime{det, async} {
		if err := s.arm(rt); err != nil {
			async.Close()
			return nil, err
		}
	}
	return s, nil
}

// arm enables the daemon and installs the boot strategy on one runtime.
func (s *serveSetup) arm(rt servingRuntime) error {
	rt.EnableSelfHealing(healthConfig(s.spec))
	if s.spec.strategy {
		return rt.InstallStrategy(s.boot, quorum.Majority(serveSites), 1, bootBudget, rng.SubSeed(s.seed, 3))
	}
	return nil
}

func (s *serveSetup) close() { s.async.Close() }

// opRecord is one op's outcome, kept for the history log and the digest.
type opRecord struct {
	granted      bool
	value, stamp int64
	residue      []cluster.Residue
}

// serveRun is what one runtime did over one repetition.
type serveRun struct {
	runtime   string
	opUs      []float64 // wall latency of each granted op
	sweepMs   []float64 // wall time of each full daemon sweep
	loopSec   float64   // wall time of the whole serving loop
	attempted int
	granted   int
	digest    uint64 // FNV-1a over every op's (grant, stamp, value)
	records   []opRecord

	// Summaries kept once the rep's checks are done and the slices above
	// are released, so that finished reps do not inflate the heap.
	opP50Us, opP99Us, sweepP99Ms float64
	nOps, nSweeps                int

	msgs, allocs int64
	health       stats.HealthCounters
	strat        stats.StrategyCounters
	store        store.Counters
}

// serve replays the schedule on rt with one op outstanding: the churn
// events due, a full daemon sweep every daemonEvery ops, then the op.
func (s *serveSetup) serve(name string, rt servingRuntime, tr *tracer) *serveRun {
	sched := s.sched
	run := &serveRun{
		runtime: name,
		opUs:    make([]float64, 0, len(sched.sites)),
		sweepMs: make([]float64, 0, len(sched.sites)/daemonEvery+1),
		records: make([]opRecord, len(sched.sites)),
	}
	readName, writeName := "cluster."+name+".read", "cluster."+name+".write"
	daemonName, churnName := "cluster."+name+".daemon", "graph."+name+".churn"
	msgs0 := messagesSent(rt)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs

	value := int64(0)
	loop := time.Now()
	for i, site := range sched.sites {
		op := int64(i)
		if evs := sched.events[i]; len(evs) > 0 {
			sp := tr.begin(churnName, -1, op)
			for _, ev := range evs {
				switch ev.Kind {
				case faults.SiteFail:
					rt.FailSite(ev.Index)
				case faults.SiteRepair:
					rt.RepairSite(ev.Index)
				case faults.LinkFail:
					rt.FailLink(ev.Index)
				case faults.LinkRepair:
					rt.RepairLink(ev.Index)
				}
			}
			tr.end(sp)
		}
		if i%daemonEvery == 0 {
			sp := tr.begin(daemonName, -1, op)
			t0 := time.Now()
			for x := 0; x < serveSites; x++ {
				rt.DaemonStep(x)
			}
			run.sweepMs = append(run.sweepMs, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(sp)
		}
		var out cluster.Outcome
		if sched.reads[i] {
			sp := tr.begin(readName, -1, op)
			t0 := time.Now()
			out = rt.ServeRead(site)
			d := time.Since(t0)
			tr.end(sp)
			if out.Granted {
				run.opUs = append(run.opUs, float64(d.Nanoseconds())/1e3)
			}
		} else {
			value++
			sp := tr.begin(writeName, -1, op)
			t0 := time.Now()
			out = rt.ServeWrite(site, value)
			d := time.Since(t0)
			tr.end(sp)
			if out.Granted {
				run.opUs = append(run.opUs, float64(d.Nanoseconds())/1e3)
			}
			out.Value = value
		}
		run.records[i] = opRecord{granted: out.Granted, value: out.Value, stamp: out.Stamp, residue: out.Residue}
		run.attempted++
		if out.Granted {
			run.granted++
		}
	}
	run.loopSec = time.Since(loop).Seconds()

	runtime.ReadMemStats(&ms)
	run.allocs = int64(ms.Mallocs - allocs0)
	run.msgs = messagesSent(rt) - msgs0
	run.health = rt.HealthCounters()
	run.strat = rt.StrategyCounters()
	for x := 0; x < serveSites; x++ {
		c := rt.StoreCounters(x)
		run.store.Appends += c.Appends
		run.store.Syncs += c.Syncs
	}
	run.digest = digest(run.records)
	return run
}

// digest folds every op's outcome into one comparable value.
func digest(recs []opRecord) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, r := range recs {
		b[0] = 0
		if r.granted {
			b[0] = 1
		}
		for k := 0; k < 8; k++ {
			b[1+k] = byte(r.stamp >> (8 * k))
			b[9+k] = byte(r.value >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// historyLog rebuilds the run's history for the one-copy serializability
// check; op i happens at time i.
func (s *serveSetup) historyLog(run *serveRun) *history.Log {
	log := &history.Log{}
	for i, r := range run.records {
		t := float64(i)
		if s.sched.reads[i] {
			log.RecordRead(s.sched.sites[i], r.granted, r.value, r.stamp, t)
			continue
		}
		for _, res := range r.residue {
			log.RecordIndeterminateWrite(s.sched.sites[i], res.Value, res.Stamp, t)
		}
		log.RecordWrite(s.sched.sites[i], r.granted, r.value, r.stamp, t)
	}
	return log
}

// summarize keeps the run's percentiles and releases its per-op slices.
func (run *serveRun) summarize() {
	run.opP50Us, run.opP99Us = quantile(run.opUs, 0.5), quantile(run.opUs, 0.99)
	run.sweepP99Ms = quantile(run.sweepMs, 0.99)
	run.nOps, run.nSweeps = len(run.opUs), len(run.sweepMs)
	run.opUs, run.sweepMs, run.records = nil, nil, nil
}
