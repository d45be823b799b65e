// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one workload in its own process, checks every output
// it produces, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	perfbench --workload build-broadcast --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload once untraced and once traced,
// writes the traced spans as Chrome trace-event JSON under
// .bench_build/traces, and prints the per-layer metrics. See README.md
// for the workloads, the metrics and what each per-layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd lists what a user of either path sees. Every workload
// reports every one of them; README.md gives each its meaning per path.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"rounds", "count"},
	{"comm_words", "words"},
	{"peak_local_words", "words"},
	{"distortion_mean", "ratio"},
}

// perLayer lists the traced run's metrics. A workload that does not
// reach a layer reports 0 for it.
var perLayer = []metricSpec{
	{"fjlt.apply_s", "s"},
	{"fjlt.comm_words", "words"},
	{"fjlt.alloc_mb", "MB"},
	{"mpcembed.grid_construction_s", "s"},
	{"mpcembed.grid_construction_alloc_mb", "MB"},
	{"mpcembed.grid_words", "words"},
	{"mpc.broadcast_words", "words"},
	{"mpcembed.root_paths_s", "s"},
	{"mpcembed.root_paths_alloc_mb", "MB"},
	{"mpcembed.tree_build_s", "s"},
	{"mpc.rounds.jl_projection", "count"},
	{"mpc.rounds.tree_embed", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"par.workers1_build_s", "s"},
	{"trace.build_s", "s"},
	{"trace.phase_sum_s", "s"},
	{"hst.dist_us", "us"},
	{"hst.knn_us", "us"},
	{"hst.cut_us", "us"},
	{"hst.emd_us", "us"},
	{"hst.medoid_us", "us"},
	{"serve.handler_us.dist", "us"},
	{"serve.handler_us.knn", "us"},
	{"serve.handler_us.cut", "us"},
	{"serve.handler_us.emd", "us"},
	{"serve.handler_us.medoid", "us"},
	{"serve.codec_us", "us"},
	{"serve.socket_p50_ms", "ms"},
	{"gate.overhead_us", "us"},
	{"gate.ensemble_us", "us"},
	{"gate.forwards", "count"},
	{"gate.retries", "count"},
	{"gate.backend_errors", "count"},
	{"gate.hit_us", "us"},
	{"gate.cache_hit_ratio", "ratio"},
	{"gate.cache_mismatches", "count"},
	{"treestore.load_s", "s"},
	{"loadgen.open_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.verify_us", "us"},
	{"trace.overhead_pct.build_s", "%"},
	{"trace.overhead_pct.p50_ms", "%"},
	{"tail.p95_ms", "ms"},
	{"host.speed", "ratio"},
}

// heldOutSeed is never used while tuning the benchmark or a change;
// re-check every claimed gain on it (see README.md).
const heldOutSeed = 4242

// config is one run's parameters. Tests shrink the sizes.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string // Chrome trace output directory (traced runs)
	workDir  string // scratch space for the tree store
	tiny     bool   // test-sized inputs
	out      io.Writer
}

// result is what one pass of a workload measured.
type result struct {
	attempted, failed int
	firstErr          string
	e2e               map[string]float64
	layer             map[string]float64
	host              *speedProbe // sampled before set-up and timed phases
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, host: newSpeedProbe()}
}

// toReference scales the end-to-end timings to the reference host's
// speed (see speedProbe) and logs the wall-clock values it scaled.
func (r *result) toReference(out io.Writer) {
	s := r.host.speed()
	fmt.Fprint(out, "host probe:")
	if len(r.host.samples) > 0 {
		for i := range r.host.samples[0] {
			fmt.Fprintf(out, " %s %.3f", probeTasks[i], r.host.component(i))
		}
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "host speed %.3f of the reference (%d samples); wall clock: setup_s %.6g, ops_per_s %.6g, p50_ms %.6g, p95_ms %.6g\n",
		s, len(r.host.samples), r.e2e["setup_s"], r.e2e["ops_per_s"], r.e2e["p50_ms"], r.e2e["p95_ms"])
	for _, k := range []string{"setup_s", "p50_ms"} {
		r.e2e[k] *= s
	}
	r.e2e["ops_per_s"] /= s
}

// check counts one operation and whether it passed every check.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = err.Error()
		}
	}
}

func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

type workloadFn func(cfg config, tr *tracer) (*result, error)

var workloads = map[string]workloadFn{
	"build-broadcast": runBuildBroadcast,
	"build-paths":     runBuildPaths,
	"query-cold":      runQueryCold,
	"query-hot":       runQueryHot,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run executes cfg's workload and returns the report to print. An error
// means the workload could not run at all.
func run(cfg config) (*report, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	fmt.Fprintf(cfg.out, "host: %s\n", hostFingerprint())
	fmt.Fprintf(cfg.out, "workload: %s seed %d seconds %g trace %v (held-out seed %d)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, heldOutSeed)

	specs := endToEnd
	var res *result
	if !cfg.trace {
		r, err := fn(cfg, nil)
		if err != nil {
			return nil, err
		}
		res = r
		res.toReference(cfg.out)
		res.e2e["ok_ratio"] = okRatio(res)
		res.e2e["peak_rss_mb"] = peakRSSMB()
	} else {
		specs = perLayer
		plain, err := fn(cfg, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		res, err = fn(cfg, tr)
		if err != nil {
			return nil, err
		}
		res.merge(plain)
		// The tail stays wall clock, like every per-layer timing.
		res.layer["tail.p95_ms"] = plain.e2e["p95_ms"]
		plain.toReference(cfg.out)
		res.toReference(cfg.out)
		res.layer["host.speed"] = res.host.speed()
		// On the build workloads p50_ms is the median build time.
		overhead := 100 * (res.e2e["p50_ms"] - plain.e2e["p50_ms"]) / plain.e2e["p50_ms"]
		res.layer["trace.overhead_pct.p50_ms"] = overhead
		if res.layer["trace.build_s"] > 0 {
			res.layer["trace.overhead_pct.build_s"] = overhead
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.out, "trace: %s (%d spans)\n", path, len(tr.events))
	}

	rep := &report{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	rep.Correct = res.failed == 0 && res.attempted > 0
	for _, s := range specs {
		v, ok := res.e2e[s.name]
		if cfg.trace {
			v, ok = res.layer[s.name]
		}
		if !ok {
			v = 0
		}
		rep.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
		fmt.Fprintf(cfg.out, "  %-38s %14.6g %s\n", s.name, v, s.unit)
	}
	if res.firstErr != "" {
		fmt.Fprintf(cfg.out, "first failure: %s\n", res.firstErr)
	}
	return rep, nil
}

func okRatio(r *result) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: build-broadcast, build-paths, query-cold or query-hot")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// Everything the benchmark writes stays under .bench_build in the
	// current directory, next to run.sh's build output.
	workDir := ".bench_build"
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *traced == 1,
		traceDir: filepath.Join(workDir, "traces"), workDir: workDir, out: os.Stdout}
	start := time.Now()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wall: %.1fs\n", time.Since(start).Seconds())
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
