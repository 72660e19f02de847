package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"quorumkit/internal/graph"
)

// testPlan is small but touches every counted mechanism: sampled quorums,
// resamples, fallbacks and certified re-solves (serve-write's schedule),
// a column-generation solve that hits its round cap (19 sites), and both
// anneal objectives.
var testPlan = plan{
	name:  "test",
	serve: serveSpec{alpha: 0.25, strategy: true, ops: 5_000},
	study: probeStudy,
	lp:    []lpCase{resilientCase(17, 0.25), resilientCase(19, 0.25)},
	anneal: []annealCase{
		availCase("star-20-avail-probe", graph.Star(20), 0.9, 0.7, 0.5, 1000, 4, 200),
		tieredCapacityCase(12, 20),
	},
	studyRepeat: 2, lpRepeat: 2, annealRepeat: 2,
}

// counts are the rep's deterministic counts: two runs with the same seed
// must produce identical values.
type counts struct {
	Attempted, Granted      [2]int
	Digest                  [2]uint64
	Installs, Sampled       [2]int64
	Resamples, Fallbacks    [2]int64
	Resolves                [2]int64
	Reassigns               [2]int64
	StudyBatches            int64
	Rounds, Pivots, Columns []int
	Evaluations, Accepted   []int
	Trajectories            []uint64
}

func (r *rep) counts() counts {
	var c counts
	for i, s := range r.serve {
		c.Attempted[i], c.Granted[i], c.Digest[i] = s.attempted, s.granted, s.digest
		c.Installs[i] = s.strat.Installs
		c.Sampled[i] = s.strat.SampledReads + s.strat.SampledWrites
		c.Resamples[i], c.Fallbacks[i] = s.strat.Resamples, s.strat.Fallbacks
		c.Resolves[i] = s.strat.Resolves
		c.Reassigns[i] = s.health.DaemonReassigns
	}
	c.StudyBatches = r.study.batches
	for _, l := range r.lp {
		c.Rounds = append(c.Rounds, l.rounds)
		c.Pivots = append(c.Pivots, l.pivots)
		c.Columns = append(c.Columns, l.columns)
	}
	for _, a := range r.anneal {
		c.Evaluations = append(c.Evaluations, a.evaluations)
		c.Accepted = append(c.Accepted, a.accepted)
		c.Trajectories = append(c.Trajectories, a.trajectory)
	}
	return c
}

// TestCountsRepeat runs the same seed twice: every count — grants, digests,
// strategy installs, samples, resamples, fallbacks and re-solves, study
// batches, LP rounds, pivots and columns, anneal evaluations, accepts and
// trajectories — must repeat exactly.
func TestCountsRepeat(t *testing.T) {
	var got [2]counts
	for i := range got {
		r, err := runRep(testPlan, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = r.counts()
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("counts differ between same-seed runs:\n%+v\n%+v", got[0], got[1])
	}
	c := got[0]
	if c.Sampled[0] == 0 || c.Resamples[0] == 0 || c.Resolves[0] == 0 {
		t.Fatalf("the strategy path never ran: %+v", c)
	}
	if c.Rounds[1] == 0 {
		t.Fatalf("the 19-site solve priced without column generation: %+v", c)
	}
}

// TestTracedRepMatchesUntraced checks that tracing observes without
// changing what runs.
func TestTracedRepMatchesUntraced(t *testing.T) {
	plain, err := runRep(testPlan, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runRep(testPlan, 3, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.counts(), traced.counts()) {
		t.Fatal("tracing changed the counts")
	}
	self := tr.selfSeconds()
	for _, span := range []string{"cluster.det.read", "cluster.async.write", "cluster.det.daemon",
		"sim.sweep", "sim.collect", "strategy.solve", "strategy.certify", "votes.anneal", "history.check"} {
		if self[span] <= 0 {
			t.Errorf("span %s recorded no time", span)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric table and
// the workload list.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(plans) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d plans", len(b.Workloads), len(plans))
	}
	for i, w := range b.Workloads {
		if w.Name != plans[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in plans", i, w.Name, plans[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the table %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the table", i, m, want)
		}
	}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the table", i, m, want)
		}
	}
}
