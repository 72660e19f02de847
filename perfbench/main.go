// Command perfbench is quorumkit's end-to-end benchmark. It drives four
// workloads through the public functions of the cluster, store, graph, sim,
// core, dist, strategy, votes and history packages:
//
//   - serve-read: a single closed-loop client on a 17-site ring with 17
//     chords at Majority(17), 90% reads, renewal churn and the self-healing
//     daemon at α=0.9, replayed on the deterministic and async runtimes.
//   - serve-write: the same at α=0.25 with a certified f=1 strategy
//     installed at boot and re-solved by the daemon.
//   - study: the paper's §5 pipeline on 101-site Topology 0, 4, 16 and 256
//     at α 0.25 and 0.75.
//   - optimize: certified LP solves (an 81-site heterogeneous capacity LP
//     and the daemon's f=1 re-solve at 15 to 21 sites) and certified
//     anneals.
//
// Every workload runs all four phases, the ones it is not named after on
// small probe inputs (see plans.go), so every metric exists everywhere.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15
//
// A run sets up, warms up, then repeats the workload until --seconds have
// passed; timings are medians over the repetitions, a latency percentile
// being taken within each repetition first.
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced repetitions and reports per-layer metrics
// derived from spans recorded around every call, writing the spans of the
// last traced repetition to .bench_build/spans-<workload>.jsonl. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. Any failed output check exits with status 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// minReps is the least number of measured repetitions per run, whatever
// --seconds says.
const minReps = 5

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "serve-read, serve-write, study, optimize or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// One closed-loop client has no parallel work: a second processor only
	// adds cross-thread wake-ups and a concurrent collector to its timings.
	// Everything but the study pass's workers runs on one.
	runtime.GOMAXPROCS(1)
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds))
	}
	p, ok := planNamed(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := run(p, *seed, *seconds, *trace == 1, os.Stdout)
	printResult(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printResult(res result) {
	out, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings only
	}
	fmt.Println(string(out))
}

// runAll runs every workload untraced, then traced, printing every metric.
func runAll(seed uint64, seconds float64) int {
	status := 0
	for _, p := range plans {
		for _, traced := range []bool{false, true} {
			fmt.Printf("== %s trace=%v\n", p.name, traced)
			res, err := run(p, seed, seconds, traced, os.Stdout)
			printResult(res)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.name, err)
				status = 1
			}
		}
	}
	return status
}

// run measures p for the given time and reports its metrics, printing one
// line per metric (with its sample count) and the traffic facts to w.
func run(p plan, seed uint64, seconds float64, traced bool, w io.Writer) (result, error) {
	res := result{Metrics: map[string]value{}}
	// A failed check voids its rep: all of the rep's units count as failed.
	fail := func(units int64, err error) (result, error) {
		res.Correct = false
		res.Attempted += units
		res.Failed = units
		return res, err
	}
	warm := p.warmup()
	if _, err := runRep(warm, seed, nil); err != nil {
		return fail(warm.units(), fmt.Errorf("warm-up: %w", err))
	}
	var plain, tracedReps []*rep
	var last *tracer
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced repetitions, so the
		// difference between the two is the tracing overhead.
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		r, err := runRep(p, seed, tr)
		if err != nil {
			return fail(p.units(), err)
		}
		res.Attempted += p.units()
		if tr != nil {
			tracedReps = append(tracedReps, r)
			last = tr
			r.self = tr.selfSeconds()
		} else {
			plain = append(plain, r)
		}
		n := len(plain)
		if traced {
			n = min(len(plain), len(tracedReps))
		}
		if n >= minReps && time.Now().After(deadline) {
			break
		}
	}
	res.Correct = true

	var ms []measured
	if traced {
		ms = perLayerMetrics(p, plain, tracedReps)
		if err := writeSpans(p.name, last); err != nil {
			return fail(0, err)
		}
	} else {
		ms = endToEndMetrics(plain)
	}
	for _, m := range ms {
		res.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
		fmt.Fprintf(w, "%-40s %14.6g %-6s (n=%d)", m.name, m.value, m.unit, m.samples)
		if m.moves != "" {
			fmt.Fprintf(w, "  moves %s on %s", m.moves, m.workload)
		}
		fmt.Fprintln(w)
	}
	printTraffic(w, plain[0])
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := res.Metrics[m.name]; !ok {
			return fail(0, fmt.Errorf("metric %s not measured", m.name))
		}
	}
	return res, nil
}

// printTraffic prints the counts behind the timings, from one rep (they
// repeat exactly).
func printTraffic(w io.Writer, r *rep) {
	for _, s := range r.serve {
		fmt.Fprintf(w, "traffic %-5s ops %d granted %d digest %016x msgs %d reassigns %d installs %d sampled %d resamples %d fallbacks %d resolves %d (fails %d) appends %d syncs %d\n",
			s.runtime, s.attempted, s.granted, s.digest, s.msgs, s.health.DaemonReassigns,
			s.strat.Installs, s.strat.SampledReads+s.strat.SampledWrites, s.strat.Resamples,
			s.strat.Fallbacks, s.strat.Resolves, s.strat.ResolveFails, s.store.Appends, s.store.Syncs)
	}
	fmt.Fprintf(w, "traffic study cells %d batches %d accesses %d model-optimum loss max %.4f closed-form max |Δ| %.4f (tolerance %.2f)\n",
		r.study.cells, r.study.batches, r.study.accesses, r.study.maxLoss, r.study.maxClosedFormDiff, closedFormTol)
	for _, l := range r.lp {
		fmt.Fprintf(w, "traffic lp %-14s rounds %4d pivots %6d columns %5d priced %-5v gap %.3f solve %.4fs\n",
			l.name, l.rounds, l.pivots, l.columns, l.priced, l.gap, l.solveSec)
	}
	for _, a := range r.anneal {
		fmt.Fprintf(w, "traffic anneal %-20s evals %5d accepted %4d/%d value %.6f uniform %.6f\n",
			a.name, a.evaluations, a.accepted, a.proposals, a.value, a.uniform)
	}
}

// writeSpans writes the spans of one traced repetition as JSON lines.
func writeSpans(workload string, tr *tracer) (err error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".jsonl"))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("spans: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	for i, s := range tr.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}`+"\n",
			i, s.name, s.start, s.end, s.parent, s.op)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// ---- statistics -------------------------------------------------------------

// measured is one metric's value and how many samples it rests on; a
// per-layer metric also names what it should move, and where.
type measured struct {
	name, unit      string
	value           float64
	samples         int
	moves, workload string
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(q*float64(len(s)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}
