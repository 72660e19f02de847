package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"quorumkit/internal/core"
	"quorumkit/internal/dist"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
	"quorumkit/internal/sim"
	"quorumkit/internal/strategy"
	"quorumkit/internal/topo"
	"quorumkit/internal/votes"
)

// ---- study: the paper's §5 pipeline ---------------------------------------

// minWrite is the §5.4 write-availability floor handed to
// OptimizeConstrained.
const minWrite = 0.2

// closedFormTol bounds how far the simulated Topology-0 model curve may sit
// from the closed form dist.Ring(101, p, r) at any q_r. With a 1M-access
// Collect horizon the largest gap seen over seeds is about 0.02: failures
// are slow next to accesses (ρ = 1/128), so the horizon holds few
// independent failure periods.
const closedFormTol = 0.04

// studySpec is one study pass: for every paper topology and α, a direct
// measurement of the whole q_r family (sim.Sweep) next to the model fed by
// time-weighted on-line estimation (sim.Collect → core.Model).
type studySpec struct {
	chords  []int
	alphas  []float64
	batch   sim.StudyConfig
	collect int64 // Collect horizon in expected accesses
}

// studyResult is what one pass measured and checked.
type studyResult struct {
	cells, accesses, batches int64
	maxClosedFormDiff        float64
	maxLoss                  float64 // measured availability the model's optimum gives up
}

// studyWorkers is the number of processors the process may use; the study
// pass runs that many cells at once, the other phases run on one.
var studyWorkers = runtime.GOMAXPROCS(0)

// studyPass runs every cell, studyWorkers at once, on graphs built
// from spec.chords. The seed picks the simulation streams; topologies and
// parameters are the paper's.
func studyPass(spec studySpec, graphs []*graph.Graph, seed uint64, tr *tracer, parent int32) (studyResult, error) {
	p := sim.PaperParams()
	type cell struct {
		g     int // index into spec.chords and graphs
		alpha float64
		meas  []sim.Measurement
	}
	var cells []*cell
	for g := range spec.chords {
		for _, a := range spec.alphas {
			cells = append(cells, &cell{g: g, alpha: a})
		}
	}
	models := make([]core.Model, len(spec.chords))

	// Tasks: one Sweep per cell and one Collect per topology.
	errs := make([]error, len(cells)+len(spec.chords))
	tasks := make(chan int)
	var wg sync.WaitGroup
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(studyWorkers))
	for w := 0; w < studyWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range tasks {
				if k < len(cells) {
					c := cells[k]
					cfg := spec.batch
					cfg.Seed = rng.SubSeed(seed, uint64(100+k))
					sp := tr.begin("sim.sweep", parent, -1)
					c.meas, errs[k] = sim.Sweep(graphs[c.g], nil, p, c.alpha, cfg)
					tr.end(sp)
					continue
				}
				i := k - len(cells)
				sp := tr.begin("sim.collect", parent, -1)
				models[i], _, errs[k] = sim.Collect(graphs[i], nil, p, sim.CollectConfig{
					Mode: sim.TimeWeighted, Accesses: spec.collect, Warmup: spec.collect / 20,
					Seed: rng.SubSeed(seed, uint64(200+i)),
				})
				tr.end(sp)
			}
		}()
	}
	for k := range errs {
		tasks <- k
	}
	close(tasks)
	wg.Wait()

	var res studyResult
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	for _, c := range cells {
		m, chords := models[c.g], spec.chords[c.g]
		sp := tr.begin("core.model", parent, -1)
		curve := m.Curve(c.alpha)
		opt := m.Optimize(c.alpha)
		con, cerr := m.OptimizeConstrained(c.alpha, minWrite)
		tr.end(sp)
		// On sparse topologies no q_r reaches the write floor; the optimizer
		// must then say so rather than return an assignment below it.
		if reachable := m.Availability(0, m.MaxReadQuorum()) >= minWrite; reachable != (cerr == nil) ||
			(cerr == nil && m.Availability(0, con.Assignment.QR) < minWrite) {
			return res, fmt.Errorf("topology %d α=%.2f: constrained optimum %+v (err %v) inconsistent with the write floor %.2f",
				chords, c.alpha, con, cerr, minWrite)
		}
		res.cells++
		batches := 0
		best := 0
		for i, me := range c.meas {
			if me.Batches > batches {
				batches = me.Batches
			}
			if me.Overall.Mean > c.meas[best].Overall.Mean {
				best = i
			}
		}
		res.batches += int64(batches)
		res.accesses += int64(batches) * (spec.batch.Warmup + spec.batch.BatchAccesses)
		// The model's optimum must measure as well as the best measured q_r:
		// their 95% confidence intervals overlap. (The model is itself an
		// estimate, so near-ties may resolve either way.)
		got, b := c.meas[opt.Assignment.QR-1].Overall, c.meas[best].Overall
		if got.Mean+got.HalfSize < b.Mean-b.HalfSize {
			return res, fmt.Errorf("topology %d α=%.2f: model optimum q_r=%d measures %.4f±%.4f, below the best q_r=%d's %.4f±%.4f",
				chords, c.alpha, opt.Assignment.QR, got.Mean, got.HalfSize, best+1, b.Mean, b.HalfSize)
		}
		res.maxLoss = math.Max(res.maxLoss, b.Mean-got.Mean)
		if chords == 0 {
			sp := tr.begin("dist.closed_form", parent, -1)
			exact, err := core.ModelFromSingleDensity(dist.Ring(topo.Sites, p.Reliability(), p.Reliability()))
			var want []float64
			if err == nil {
				want = exact.Curve(c.alpha)
			}
			tr.end(sp)
			if err != nil {
				return res, err
			}
			for i, v := range curve {
				res.maxClosedFormDiff = math.Max(res.maxClosedFormDiff, math.Abs(v-want[i]))
			}
			if res.maxClosedFormDiff > closedFormTol {
				return res, fmt.Errorf("topology 0 α=%.2f: model curve is %.4f from the closed form (tolerance %.2f)",
					c.alpha, res.maxClosedFormDiff, closedFormTol)
			}
		}
	}
	return res, nil
}

// ---- lp: certified strategy solves ----------------------------------------

// lpCase is one certified solve. resilience < 0 solves OptimizeCapacity,
// otherwise OptimizeResilientCapacity with that f. Every system is fixed:
// the LP set is the same on every seed.
type lpCase struct {
	name       string
	sys        strategy.System
	fr         strategy.FrDist
	resilience int
	opts       strategy.Options
}

// lpStat is one solve's traffic.
type lpStat struct {
	name                    string
	rounds, pivots, columns int
	priced                  bool
	gap, solveSec           float64
}

// heteroSystem draws an n-site heterogeneous unit-vote majority system the
// same way the repository's strategy benchmark does.
func heteroSystem(n int, seed uint64) strategy.System {
	src := rng.New(seed)
	sys := strategy.System{
		Votes: make([]int, n), QR: n/2 + 1, QW: n/2 + 1,
		ReadCap:  make([]float64, n),
		WriteCap: make([]float64, n),
		Latency:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		sys.Votes[i] = 1
		sys.ReadCap[i] = 1000 + 3000*src.Float64()
		sys.WriteCap[i] = 500 + 1500*src.Float64()
		sys.Latency[i] = 1 + 9*src.Float64()
	}
	return sys
}

// resilientCase is the daemon's re-solve: unit capacities, f=1, Majority(n).
func resilientCase(n int, alpha float64) lpCase {
	return lpCase{name: fmt.Sprintf("resilient-%d", n), sys: unitMajority(n), fr: strategy.SingleFr(alpha), resilience: 1}
}

// heteroCase is the n-site heterogeneous capacity LP at the read-fraction
// mix {0.8: 2, 0.5: 1}. Its capacities come from a fixed draw, not from the
// run's seed: across draws the solve takes 12k to 19k pivots (1.4 to 2.4 s),
// a spread no useful bound could absorb.
func heteroCase(n int) lpCase {
	fr, err := strategy.NewFrDist(map[float64]float64{0.8: 2, 0.5: 1})
	if err != nil {
		panic(err) // constant input
	}
	return lpCase{
		name: fmt.Sprintf("hetero-%d", n), sys: heteroSystem(n, 1), fr: fr,
		resilience: -1, opts: strategy.Options{TargetGap: 0.05},
	}
}

// lpPass solves and certifies every case.
func lpPass(in []lpCase, tr *tracer, parent int32) ([]lpStat, error) {
	stats := make([]lpStat, len(in))
	for i, c := range in {
		sp := tr.begin("strategy.solve", parent, -1)
		t0 := nowSec()
		var res *strategy.Result
		var err error
		if c.resilience < 0 {
			res, err = strategy.OptimizeCapacity(c.sys, c.fr, c.opts)
		} else {
			res, err = strategy.OptimizeResilientCapacity(c.sys, c.fr, c.resilience, c.opts)
		}
		solve := nowSec() - t0
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		sp = tr.begin("strategy.certify", parent, -1)
		err = res.Certify(1e-6)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: certificate: %w", c.name, err)
		}
		stats[i] = lpStat{
			name: c.name, rounds: res.Rounds, pivots: res.Sol.Pivots, columns: res.Generated,
			priced: res.Priced, gap: (res.Value - res.Bound) / res.Value,
			solveSec: solve,
		}
	}
	return stats, nil
}

// sameLP reports whether two passes over the same LP set did the same work.
func sameLP(a, b []lpStat) bool {
	for i := range a {
		if a[i].rounds != b[i].rounds || a[i].pivots != b[i].pivots || a[i].columns != b[i].columns || a[i].gap != b[i].gap {
			return false
		}
	}
	return len(a) == len(b)
}

// ---- anneal: certified weighted-vote search -------------------------------

// annealCase is one votes.Anneal run on a freshly built objective.
type annealCase struct {
	name string
	n    int
	// newObj builds a fresh objective (they keep internal buffers).
	newObj func(tr *tracer) (votes.Objective, error)
	cfg    votes.SearchConfig
}

// annealSeed seeds every anneal's scenarios and search, as in the
// repository's weights benchmark. It is fixed rather than drawn from the
// run's seed because the search's work (its evaluation count) moves with
// the seed by more than any useful bound on anneal_s.
const annealSeed = 1

// availCase anneals availability on scenarios sampled from g.
func availCase(name string, g *graph.Graph, p, r, alpha float64, count, maxVotes, steps int) annealCase {
	return annealCase{
		name: name, n: g.N(),
		newObj: func(tr *tracer) (votes.Objective, error) {
			sp := tr.begin("votes.scenarios", -1, -1)
			defer tr.end(sp)
			sc, err := votes.SampleScenarios(g, p, r, count, annealSeed)
			if err != nil {
				return nil, err
			}
			return votes.NewAvailObjective(sc, alpha)
		},
		cfg: votes.SearchConfig{MaxVotesPerSite: maxVotes, Seed: annealSeed, Steps: steps, Restarts: 2},
	}
}

// tieredCapacityCase anneals LP capacity on n sites of alternating
// read/write capacity tiers.
func tieredCapacityCase(n, steps int) annealCase {
	return annealCase{
		name: fmt.Sprintf("tiered-%d-capacity", n), n: n,
		newObj: func(*tracer) (votes.Objective, error) {
			readCap := make([]float64, n)
			writeCap := make([]float64, n)
			for i := range readCap {
				readCap[i], writeCap[i] = 2000, 1000
				if i%2 == 0 {
					readCap[i], writeCap[i] = 4000, 2000
				}
			}
			fr, err := strategy.NewFrDist(map[float64]float64{0.9: 1})
			if err != nil {
				return nil, err
			}
			return votes.CapacityObjective{ReadCap: readCap, WriteCap: writeCap, Dist: fr}, nil
		},
		cfg: votes.SearchConfig{MaxVotesPerSite: 3, Seed: annealSeed, Steps: steps, Restarts: 1},
	}
}

type annealInput struct {
	annealCase
	obj votes.Objective
}

func annealSetup(cases []annealCase, tr *tracer) ([]annealInput, error) {
	in := make([]annealInput, len(cases))
	for i, c := range cases {
		obj, err := c.newObj(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		in[i] = annealInput{annealCase: c, obj: obj}
	}
	return in, nil
}

// annealStat is one search's traffic.
type annealStat struct {
	name                string
	evaluations         int
	accepted, proposals int
	value, uniform      float64
	trajectory          uint64
}

// annealPass runs every search. The checks — every accept certified, the
// result intersecting and no worse than uniform — run after timing, in
// annealCheck.
func annealPass(in []annealInput, tr *tracer, parent int32) ([]annealStat, []votes.SearchResult, error) {
	stats := make([]annealStat, len(in))
	results := make([]votes.SearchResult, len(in))
	for i, c := range in {
		sp := tr.begin("votes.anneal", parent, -1)
		res, err := votes.Anneal(c.n, c.obj, c.cfg)
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.name, err)
		}
		results[i] = res
		stats[i] = annealStat{
			name: c.name, evaluations: res.Evaluations, accepted: res.Accepted,
			proposals: c.cfg.Steps * c.cfg.Restarts, value: res.Value, trajectory: res.TrajectoryHash,
		}
	}
	return stats, results, nil
}

// sameAnneal reports whether two passes over the same anneal set took the
// same trajectories.
func sameAnneal(a, b []annealStat) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

func annealCheck(in []annealInput, stats []annealStat, results []votes.SearchResult) error {
	for i, c := range in {
		res := results[i]
		if res.CertifiedAccepts != res.Accepted || !res.Cert.Intersects() {
			return fmt.Errorf("%s: %d of %d accepts certified, result intersects=%v",
				c.name, res.CertifiedAccepts, res.Accepted, res.Cert.Intersects())
		}
		uni, err := c.obj.Eval(quorum.UniformVotes(c.n))
		if err != nil {
			return fmt.Errorf("%s: uniform: %w", c.name, err)
		}
		stats[i].uniform = uni.Value
		if res.Value < uni.Value {
			return fmt.Errorf("%s: weighted value %.6f below uniform %.6f", c.name, res.Value, uni.Value)
		}
	}
	return nil
}
