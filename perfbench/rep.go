package main

import (
	"fmt"
	"runtime"
	"time"

	"quorumkit/internal/graph"
	"quorumkit/internal/topo"
	"quorumkit/internal/votes"
)

func nowSec() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// rep is one repetition of a plan: set-up, the four timed phases, then the
// output checks.
type rep struct {
	setupSec float64
	serve    [2]*serveRun // det, async
	study    studyResult
	lp       []lpStat
	anneal   []annealStat

	studySec, lpSec, annealSec float64
	timedSec                   float64            // serving loops plus the three passes
	heapPeakMB                 float64            // largest live heap between phases
	self                       map[string]float64 // traced reps: self seconds per span name
}

// liveHeapMB collects garbage and returns the live heap in megabytes. It
// runs between phases, so each phase also starts from a collected heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// repeatPass runs a compute pass n times, each under a root span, and
// returns the first pass's output and the median duration. Every later
// pass must report the same counts as the first.
func repeatPass[T any](n int, tr *tracer, name string, pass func(parent int32) (T, error), same func(a, b T) bool) (T, float64, error) {
	var first T
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		root := tr.begin(name, -1, -1)
		t0 := nowSec()
		out, err := pass(root)
		times[i] = nowSec() - t0
		tr.end(root)
		if err != nil {
			return first, 0, fmt.Errorf("%s: %w", name, err)
		}
		if i == 0 {
			first = out
		} else if !same(first, out) {
			return first, 0, fmt.Errorf("%s: pass %d counted differently from pass 0", name, i)
		}
	}
	return first, median(times), nil
}

// runRep sets up and runs p once on seed's inputs. A returned error is a
// failed output check or a failed call; the rep's numbers are then void.
func runRep(p plan, seed uint64, tr *tracer) (*rep, error) {
	r := &rep{}
	peak := func() { r.heapPeakMB = max(r.heapPeakMB, liveHeapMB()) }

	// Set-up: topology builds, runtime construction, the boot strategy
	// solve, schedule generation and scenario sampling. (The LP systems
	// are constants of the plan.)
	t0 := nowSec()
	ss, err := newServeSetup(p.serve, seed, tr)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	sp := tr.begin("topo.build", -1, -1)
	graphs := make([]*graph.Graph, len(p.study.chords))
	for i, c := range p.study.chords {
		graphs[i] = topo.Build(topo.Sites, c)
	}
	tr.end(sp)
	annIn, err := annealSetup(p.anneal, tr)
	if err != nil {
		return nil, err
	}
	r.setupSec = nowSec() - t0
	peak()

	// Timed phases.
	r.serve[0] = ss.serve("det", ss.det, tr)
	peak()
	r.serve[1] = ss.serve("async", ss.async, tr)
	peak()

	r.study, r.studySec, err = repeatPass(p.studyRepeat, tr, "study", func(parent int32) (studyResult, error) {
		return studyPass(p.study, graphs, seed, tr, parent)
	}, func(a, b studyResult) bool { return a == b })
	if err != nil {
		return nil, err
	}
	peak()
	r.lp, r.lpSec, err = repeatPass(p.lpRepeat, tr, "lp", func(parent int32) ([]lpStat, error) {
		return lpPass(p.lp, tr, parent)
	}, sameLP)
	if err != nil {
		return nil, err
	}
	peak()
	var res []votes.SearchResult
	r.anneal, r.annealSec, err = repeatPass(p.annealRepeat, tr, "anneal", func(parent int32) ([]annealStat, error) {
		st, out, err := annealPass(annIn, tr, parent)
		if res == nil {
			res = out
		}
		return st, err
	}, sameAnneal)
	if err != nil {
		return nil, err
	}
	peak()
	r.timedSec = r.serve[0].loopSec + r.serve[1].loopSec + float64(p.studyRepeat)*r.studySec +
		float64(p.lpRepeat)*r.lpSec + float64(p.annealRepeat)*r.annealSec

	// Output checks, outside every timed phase.
	if err := annealCheck(annIn, r.anneal, res); err != nil {
		return nil, fmt.Errorf("anneal: %w", err)
	}
	for _, run := range r.serve {
		sp := tr.begin("history.check", -1, -1)
		err := ss.historyLog(run).Check()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s runtime history: %w", run.runtime, err)
		}
	}
	det, async := r.serve[0], r.serve[1]
	if det.digest != async.digest || det.granted != async.granted {
		return nil, fmt.Errorf("runtimes disagree: det %d granted digest %016x, async %d granted digest %016x",
			det.granted, det.digest, async.granted, async.digest)
	}
	det.summarize()
	async.summarize()
	return r, nil
}
