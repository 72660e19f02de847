package main

import (
	"quorumkit/internal/graph"
	"quorumkit/internal/sim"
)

// plan is one workload. Every workload runs the same four phases — serving
// on both runtimes, a study pass, a pass of certified LP solves and a pass
// of certified anneals — so that every end-to-end metric exists on every
// workload. A workload puts its full-size inputs into the phase it is named
// after; the other phases run the small probe inputs below, identical on
// every workload, which keep the metrics defined and act as a control.
type plan struct {
	name   string
	serve  serveSpec
	study  studySpec
	lp     []lpCase
	anneal []annealCase
	// Passes per repetition of each compute phase. A probe pass takes
	// milliseconds, so it repeats for a steadier median; the count is
	// fixed, so the work per repetition is too.
	studyRepeat, lpRepeat, annealRepeat int
}

// Passes per repetition of a probe phase.
const (
	probeStudyRepeat  = 4
	probeLPRepeat     = 100
	probeAnnealRepeat = 5
)

// Probe inputs.
var (
	probeStudy = studySpec{
		chords:  []int{0},
		alphas:  []float64{0.75},
		batch:   sim.StudyConfig{Warmup: 2_000, BatchAccesses: 20_000, MinBatches: 5, MaxBatches: 5, CIHalfWidth: 0.005},
		collect: 1_000_000,
	}
	// serve-read's serving mix at a third of its length.
	probeServe  = serveSpec{alpha: 0.9, ops: 10_000}
	probeLP     = []lpCase{resilientCase(serveSites, 0.25)}
	probeAnneal = []annealCase{availCase("star-20-avail-probe", graph.Star(20), 0.9, 0.7, 0.5, 1000, 4, 200)}
)

// Full-size inputs.
var (
	// The paper's §5 study on 101-site Topology i, measured directly with
	// its batching rule (warm-up, 5 to 18 batches, stop at a ±0.005 95% CI)
	// at a tenth of its batch length, next to the model from on-line
	// estimation. Full-length batches take 1 to 7 s per cell on two cores,
	// too long to repeat a pass within a run.
	fullStudy = studySpec{
		chords:  []int{0, 4, 16, 256},
		alphas:  []float64{0.25, 0.75},
		batch:   tenthPaperStudy(),
		collect: 1_000_000,
	}
	// The 81-site heterogeneous capacity LP, then the daemon-shaped f=1
	// re-solve across the column-generation cliff between 17 and 19 sites.
	fullLP = []lpCase{
		heteroCase(81),
		resilientCase(15, 0.25), resilientCase(17, 0.25), resilientCase(19, 0.25), resilientCase(21, 0.25),
	}
	// The anneal cases of the repository's weights benchmark.
	fullAnneal = []annealCase{
		availCase("star-100-avail", graph.Star(100), 0.9, 0.7, 0.5, 1000, 4, 800),
		availCase("star-20-avail", graph.Star(20), 0.9, 0.7, 0.5, 4000, 4, 1000),
		tieredCapacityCase(12, 80),
	}
)

func tenthPaperStudy() sim.StudyConfig {
	c := sim.PaperStudy()
	c.Warmup /= 10
	c.BatchAccesses /= 10
	return c
}

var plans = []plan{
	// 30k ops per repetition average the daemon's work over enough churn:
	// at 10k, serve-write's re-solve count moves by ±12% with the seed, and
	// det.ops_per_s with it.
	{name: "serve-read", serve: serveSpec{alpha: 0.9, ops: 30_000},
		study: probeStudy, lp: probeLP, anneal: probeAnneal,
		studyRepeat: probeStudyRepeat, lpRepeat: probeLPRepeat, annealRepeat: probeAnnealRepeat},
	{name: "serve-write", serve: serveSpec{alpha: 0.25, strategy: true, ops: 30_000},
		study: probeStudy, lp: probeLP, anneal: probeAnneal,
		studyRepeat: probeStudyRepeat, lpRepeat: probeLPRepeat, annealRepeat: probeAnnealRepeat},
	{name: "study", serve: probeServe, study: fullStudy, lp: probeLP, anneal: probeAnneal,
		studyRepeat: 1, lpRepeat: probeLPRepeat, annealRepeat: probeAnnealRepeat},
	{name: "optimize", serve: probeServe, study: probeStudy, lp: fullLP, anneal: fullAnneal,
		studyRepeat: probeStudyRepeat, lpRepeat: 1, annealRepeat: 1},
}

// warmup is the plan's small version, run once before timing so that
// caches, the heap and lazily built state are warm: the same serving mix at
// probe length and the probe inputs of every other phase.
func (p plan) warmup() plan {
	w := plan{name: p.name + "-warmup", serve: p.serve, study: probeStudy, lp: probeLP, anneal: probeAnneal,
		studyRepeat: 1, lpRepeat: 1, annealRepeat: 1}
	w.serve.ops = probeServe.ops
	return w
}

// units counts one repetition's units of work: served ops on both
// runtimes, study cells, LP solves and anneals.
func (p plan) units() int64 {
	return int64(2*p.serve.ops + p.studyRepeat*len(p.study.chords)*len(p.study.alphas) +
		p.lpRepeat*len(p.lp) + p.annealRepeat*len(p.anneal))
}

func planNamed(name string) (plan, bool) {
	for _, p := range plans {
		if p.name == name {
			return p, true
		}
	}
	return plan{}, false
}
