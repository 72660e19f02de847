package main

// endToEndMetrics summarizes untraced reps: every timing is a median over
// reps; the sample count printed with a percentile is the number of ops or
// sweeps it rests on across all reps.
func endToEndMetrics(reps []*rep) []measured {
	var out []measured
	add := func(name string, v float64, n int) {
		for _, m := range endToEnd {
			if m.name == name {
				out = append(out, measured{name: name, unit: m.unit, value: v, samples: n})
				return
			}
		}
		panic("perfbench: unlisted metric " + name)
	}
	perRep := func(f func(*rep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	var granted, attempted int
	for k, rt := range []string{"det", "async"} {
		ops, sweeps := 0, 0
		for _, r := range reps {
			ops += r.serve[k].nOps
			sweeps += r.serve[k].nSweeps
		}
		// Percentiles are taken per rep, then the median across reps, so
		// that one rep slowed by something else on the machine does not
		// shift them.
		add(rt+".op_p50_us", median(perRep(func(r *rep) float64 { return r.serve[k].opP50Us })), ops)
		add(rt+".op_p99_us", median(perRep(func(r *rep) float64 { return r.serve[k].opP99Us })), ops)
		add(rt+".ops_per_s", median(perRep(func(r *rep) float64 {
			return float64(r.serve[k].attempted) / r.serve[k].loopSec
		})), len(reps))
		add(rt+".daemon_sweep_p99_ms", median(perRep(func(r *rep) float64 { return r.serve[k].sweepP99Ms })), sweeps)
	}
	for _, r := range reps {
		granted += r.serve[0].granted
		attempted += r.serve[0].attempted
	}
	add("grant_rate", float64(granted)/float64(attempted), attempted)
	add("study_s", median(perRep(func(r *rep) float64 { return r.studySec })), len(reps))
	add("lp_solve_s", median(perRep(func(r *rep) float64 { return r.lpSec })), len(reps))
	add("anneal_s", median(perRep(func(r *rep) float64 { return r.annealSec })), len(reps))
	add("setup_s", median(perRep(func(r *rep) float64 { return r.setupSec })), len(reps))
	add("heap_peak_mb", median(perRep(func(r *rep) float64 { return r.heapPeakMB })), len(reps))
	return out
}

// perLayerMetrics summarizes traced reps. Busy times are self times per
// serving loop or per compute pass; counts are per loop, per pass or per
// op; the tracing overhead compares the timed phases of traced and untraced
// reps of the same run.
func perLayerMetrics(p plan, plain, traced []*rep) []measured {
	var out []measured
	n := len(traced)
	add := func(name string, v float64) {
		for _, m := range perLayer {
			if m.name == name {
				out = append(out, measured{name: name, unit: m.unit, value: v, samples: n, moves: m.moves, workload: m.workload})
				return
			}
		}
		panic("perfbench: unlisted metric " + name)
	}
	self := func(span string, passes int) float64 {
		s := 0.0
		for _, r := range traced {
			s += r.self[span]
		}
		return s / float64(n*passes)
	}
	perRep := func(f func(*rep) float64) float64 {
		s := 0.0
		for _, r := range traced {
			s += f(r)
		}
		return s / float64(n)
	}
	for k, rt := range []string{"det", "async"} {
		var ops, granted, allocs, msgs, sampled, resamples, appends, syncs float64
		for _, r := range traced {
			s := r.serve[k]
			ops += float64(s.attempted)
			granted += float64(s.granted)
			allocs += float64(s.allocs)
			msgs += float64(s.msgs)
			sampled += float64(s.strat.SampledReads + s.strat.SampledWrites)
			resamples += float64(s.strat.Resamples)
			appends += float64(s.store.Appends)
			syncs += float64(s.store.Syncs)
		}
		c := "cluster." + rt
		add(c+".allocs_per_op", allocs/ops)
		add(c+".msgs_per_op", msgs/ops)
		add(c+".read.busy_s", self(c+".read", 1))
		add(c+".write.busy_s", self(c+".write", 1))
		add(c+".daemon.busy_s", self(c+".daemon", 1))
		add(c+".daemon.reassigns", perRep(func(r *rep) float64 { return float64(r.serve[k].health.DaemonReassigns) }))
		add(c+".strategy.sampled_ratio", sampled/granted)
		add(c+".strategy.resamples_per_op", resamples/ops)
		add(c+".strategy.resolves", perRep(func(r *rep) float64 { return float64(r.serve[k].strat.Resolves) }))
		add("store."+rt+".appends_per_op", appends/ops)
		add("store."+rt+".syncs_per_op", syncs/ops)
		add("graph."+rt+".churn.busy_s", self("graph."+rt+".churn", 1))
	}

	sweep := self("sim.sweep", p.studyRepeat)
	add("sim.sweep.busy_s", sweep)
	add("sim.accesses_per_s", perRep(func(r *rep) float64 { return float64(r.study.accesses) })/sweep)
	add("sim.batches", perRep(func(r *rep) float64 { return float64(r.study.batches) }))
	add("sim.collect.busy_s", self("sim.collect", p.studyRepeat))
	add("core.model.busy_s", self("core.model", p.studyRepeat))
	add("dist.closed_form.busy_s", self("dist.closed_form", p.studyRepeat))

	add("strategy.solve.busy_s", self("strategy.solve", p.lpRepeat))
	add("strategy.certify.busy_s", self("strategy.certify", p.lpRepeat))
	var rounds, pivots, columns, gap float64
	for _, l := range traced[0].lp {
		rounds += float64(l.rounds)
		pivots += float64(l.pivots)
		columns += float64(l.columns)
		gap = max(gap, l.gap)
	}
	add("strategy.rounds", rounds)
	add("strategy.pivots", pivots)
	add("strategy.columns", columns)
	add("strategy.max_bound_gap", gap)

	add("votes.scenarios.busy_s", self("votes.scenarios", 1))
	add("votes.anneal.busy_s", self("votes.anneal", p.annealRepeat))
	var evals, accepted, proposals float64
	for _, a := range traced[0].anneal {
		evals += float64(a.evaluations)
		accepted += float64(a.accepted)
		proposals += float64(a.proposals)
	}
	add("votes.evaluations", evals)
	add("votes.accept_ratio", accepted/proposals)

	add("history.check_s", self("history.check", 1))
	timed := func(reps []*rep) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r.timedSec
		}
		return median(xs)
	}
	add("trace.overhead_pct", 100*(timed(traced)/timed(plain)-1))
	return out
}
