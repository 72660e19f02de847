package main

// metric is one reported number. End-to-end metrics have a bound (the
// share of the parent's median by which a change may worsen them); the
// per-layer ones have none and name the end-to-end metric they should move
// and the workload where they do. BENCHMARK.json lists the same names,
// units and bounds; bench_test.go keeps the two in step.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only
	moves, workload    string  // per-layer only
}

var endToEnd = []metric{
	{name: "det.op_p50_us", unit: "us", better: "lower", bound: 0.2},
	{name: "det.op_p99_us", unit: "us", better: "lower", bound: 0.2},
	{name: "async.op_p50_us", unit: "us", better: "lower", bound: 0.2},
	{name: "async.op_p99_us", unit: "us", better: "lower", bound: 0.2},
	{name: "det.ops_per_s", unit: "1/s", better: "higher", bound: 0.2},
	{name: "async.ops_per_s", unit: "1/s", better: "higher", bound: 0.2},
	{name: "det.daemon_sweep_p99_ms", unit: "ms", better: "lower", bound: 0.2},
	{name: "async.daemon_sweep_p99_ms", unit: "ms", better: "lower", bound: 0.2},
	{name: "grant_rate", unit: "ratio", better: "higher", bound: 0.03},
	{name: "study_s", unit: "s", better: "lower", bound: 0.2},
	{name: "lp_solve_s", unit: "s", better: "lower", bound: 0.2},
	{name: "anneal_s", unit: "s", better: "lower", bound: 0.2},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_peak_mb", unit: "MB", better: "lower", bound: 0.1},
}

// perLayer is the metric → layer → workload map: every name starts with
// the package it measures, and moves/workload say where a change to that
// package should show.
var perLayer = []metric{
	{name: "cluster.det.allocs_per_op", unit: "count", better: "lower", moves: "det.op_p50_us, det.ops_per_s", workload: "serve-read"},
	{name: "cluster.async.allocs_per_op", unit: "count", better: "lower", moves: "async.op_p50_us, async.ops_per_s", workload: "serve-read"},
	{name: "cluster.det.msgs_per_op", unit: "count", better: "lower", moves: "det.op_p50_us", workload: "serve-read, serve-write"},
	{name: "cluster.async.msgs_per_op", unit: "count", better: "lower", moves: "async.op_p50_us", workload: "serve-read, serve-write"},
	{name: "cluster.det.read.busy_s", unit: "s", better: "lower", moves: "det.ops_per_s", workload: "serve-read"},
	{name: "cluster.det.write.busy_s", unit: "s", better: "lower", moves: "det.ops_per_s", workload: "serve-write"},
	{name: "cluster.async.read.busy_s", unit: "s", better: "lower", moves: "async.ops_per_s", workload: "serve-read"},
	{name: "cluster.async.write.busy_s", unit: "s", better: "lower", moves: "async.ops_per_s", workload: "serve-write"},
	{name: "cluster.det.daemon.busy_s", unit: "s", better: "lower", moves: "det.daemon_sweep_p99_ms, det.ops_per_s", workload: "serve-read, serve-write"},
	{name: "cluster.async.daemon.busy_s", unit: "s", better: "lower", moves: "async.daemon_sweep_p99_ms, async.ops_per_s", workload: "serve-read, serve-write"},
	{name: "cluster.det.daemon.reassigns", unit: "count", better: "lower", moves: "det.daemon_sweep_p99_ms, det.ops_per_s", workload: "serve-read, serve-write"},
	{name: "cluster.async.daemon.reassigns", unit: "count", better: "lower", moves: "async.daemon_sweep_p99_ms, async.ops_per_s", workload: "serve-read, serve-write"},
	{name: "cluster.det.strategy.sampled_ratio", unit: "ratio", better: "higher", moves: "det.op_p50_us", workload: "serve-write"},
	{name: "cluster.async.strategy.sampled_ratio", unit: "ratio", better: "higher", moves: "async.op_p50_us", workload: "serve-write"},
	{name: "cluster.det.strategy.resamples_per_op", unit: "count", better: "lower", moves: "det.op_p50_us", workload: "serve-write"},
	{name: "cluster.async.strategy.resamples_per_op", unit: "count", better: "lower", moves: "async.op_p50_us", workload: "serve-write"},
	{name: "cluster.det.strategy.resolves", unit: "count", better: "lower", moves: "det.daemon_sweep_p99_ms", workload: "serve-write"},
	{name: "cluster.async.strategy.resolves", unit: "count", better: "lower", moves: "async.daemon_sweep_p99_ms", workload: "serve-write"},
	{name: "store.det.appends_per_op", unit: "count", better: "lower", moves: "det.op_p50_us", workload: "serve-write (heavy), serve-read (light)"},
	{name: "store.async.appends_per_op", unit: "count", better: "lower", moves: "async.op_p50_us", workload: "serve-write (heavy), serve-read (light)"},
	{name: "store.det.syncs_per_op", unit: "count", better: "lower", moves: "det.op_p50_us", workload: "serve-write (heavy), serve-read (light)"},
	{name: "store.async.syncs_per_op", unit: "count", better: "lower", moves: "async.op_p50_us", workload: "serve-write (heavy), serve-read (light)"},
	{name: "graph.det.churn.busy_s", unit: "s", better: "lower", moves: "det.ops_per_s", workload: "serve-read, serve-write (light)"},
	{name: "graph.async.churn.busy_s", unit: "s", better: "lower", moves: "async.ops_per_s", workload: "serve-read, serve-write (light)"},
	{name: "sim.sweep.busy_s", unit: "s", better: "lower", moves: "study_s", workload: "study"},
	{name: "sim.accesses_per_s", unit: "1/s", better: "higher", moves: "study_s", workload: "study"},
	{name: "sim.batches", unit: "count", better: "lower", moves: "study_s", workload: "study"},
	{name: "sim.collect.busy_s", unit: "s", better: "lower", moves: "study_s", workload: "study"},
	{name: "core.model.busy_s", unit: "s", better: "lower", moves: "study_s (small share); core is also on the daemon path", workload: "study"},
	{name: "dist.closed_form.busy_s", unit: "s", better: "lower", moves: "study_s (small share)", workload: "study"},
	{name: "strategy.solve.busy_s", unit: "s", better: "lower", moves: "lp_solve_s; re-solves move *.daemon_sweep_p99_ms", workload: "optimize; serve-write (light)"},
	{name: "strategy.rounds", unit: "count", better: "lower", moves: "lp_solve_s", workload: "optimize"},
	{name: "strategy.pivots", unit: "count", better: "lower", moves: "lp_solve_s", workload: "optimize"},
	{name: "strategy.columns", unit: "count", better: "lower", moves: "lp_solve_s", workload: "optimize"},
	{name: "strategy.max_bound_gap", unit: "ratio", better: "lower", moves: "lp_solve_s", workload: "optimize"},
	{name: "strategy.certify.busy_s", unit: "s", better: "lower", moves: "lp_solve_s", workload: "optimize"},
	{name: "votes.scenarios.busy_s", unit: "s", better: "lower", moves: "setup_s", workload: "optimize"},
	{name: "votes.anneal.busy_s", unit: "s", better: "lower", moves: "anneal_s", workload: "optimize"},
	{name: "votes.evaluations", unit: "count", better: "lower", moves: "anneal_s", workload: "optimize"},
	{name: "votes.accept_ratio", unit: "ratio", better: "higher", moves: "anneal_s", workload: "optimize"},
	{name: "history.check_s", unit: "s", better: "lower", moves: "none: a correctness check outside every timed phase", workload: "serve-read, serve-write"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none", workload: "every workload"},
}
