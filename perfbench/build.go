package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"mpctree"
	"mpctree/internal/hst"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// buildShape is one build workload's input and pipeline settings.
type buildShape struct {
	n, d, delta int
	derived     bool // SeedDerivedGrids: no grid broadcast
}

// Each run cycles its builds over embedSeeds embedding seeds derived
// from the workload seed, so distortion_mean averages several trees
// and every seed's tree hash is re-checked on its repeats.
const embedSeeds = 3

// Set-up is repeated setupReps times; setup_s is the median.
const setupReps = 3

func runBuildBroadcast(cfg config, tr *tracer) (*result, error) {
	// ROADMAP item 3's shape: 64 points, d=256, 8 machines.
	s := buildShape{n: 64, d: 256, delta: 512}
	if cfg.tiny {
		s = buildShape{n: 16, d: 64, delta: 256}
	}
	return runBuild(cfg, tr, s)
}

func runBuildPaths(cfg config, tr *tracer) (*result, error) {
	s := buildShape{n: 2048, d: 256, delta: 512, derived: true}
	if cfg.tiny {
		s = buildShape{n: 96, d: 64, delta: 256, derived: true}
	}
	return runBuild(cfg, tr, s)
}

// mpcOptions is the Theorem-1 pipeline configuration every build uses.
func mpcOptions(seed uint64, derived bool, span *obs.Span) mpctree.MPCOptions {
	opt := mpctree.MPCOptions{
		Machines: 8,
		CapWords: 1 << 22,
		Seed:     seed,
		Pipeline: mpctree.PipelineTuning(0.3, 1),
		Span:     span,
	}
	opt.Pipeline.Embed.SeedDerivedGrids = derived
	return opt
}

func embedSeed(seed uint64, j int) uint64 { return seed*16 + uint64(j) + 1 }

// buildOutcome is what the checks learned about one embedding seed's
// tree; repeats of the seed must reproduce it exactly.
type buildOutcome struct {
	hash       [32]byte
	metrics    [3]int // rounds, comm words, peak local words
	distortion float64
}

// checker verifies every build: the tree validates, dominates the
// Euclidean metric on the audit sample, and repeats its seed's hash and
// model counts.
type checker struct {
	pts   []vec.Point
	audit quality.Config
	seen  map[uint64]buildOutcome
	order []uint64
}

func newChecker(pts []vec.Point, seed uint64) *checker {
	return &checker{pts: pts, audit: quality.Config{MaxPairs: 4096, Seed: seed}, seen: map[uint64]buildOutcome{}}
}

func (c *checker) check(es uint64, t *hst.Tree, info *mpctree.MPCInfo, err error) error {
	if err != nil {
		return fmt.Errorf("embed seed %d: %w", es, err)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("embed seed %d: invalid tree: %w", es, err)
	}
	rep, err := quality.Audit(t, c.pts, c.audit)
	if err != nil {
		return fmt.Errorf("embed seed %d: audit: %w", es, err)
	}
	if rep.DominationViolations > 0 {
		return fmt.Errorf("embed seed %d: %d pairs not dominated (worst %v)", es, rep.DominationViolations, rep.WorstPair)
	}
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return err
	}
	got := buildOutcome{
		hash:       sha256.Sum256(buf.Bytes()),
		metrics:    [3]int{info.Metrics.Rounds, info.Metrics.CommWords, info.Metrics.MaxLocalWords},
		distortion: rep.MeanRatio,
	}
	want, ok := c.seen[es]
	if !ok {
		c.seen[es] = got
		c.order = append(c.order, es)
		return nil
	}
	if got != want {
		return fmt.Errorf("embed seed %d: repeat build differs (hash %x vs %x, counts %v vs %v)",
			es, got.hash[:6], want.hash[:6], got.metrics, want.metrics)
	}
	return nil
}

// modelMetrics fills the exact end-to-end counts: means over the
// distinct embedding seeds checked.
func (c *checker) modelMetrics(e2e map[string]float64) {
	var r, w, p, d []float64
	for _, es := range c.order {
		o := c.seen[es]
		r = append(r, float64(o.metrics[0]))
		w = append(w, float64(o.metrics[1]))
		p = append(p, float64(o.metrics[2]))
		d = append(d, o.distortion)
	}
	e2e["rounds"], e2e["comm_words"], e2e["peak_local_words"], e2e["distortion_mean"] = mean(r), mean(w), mean(p), mean(d)
}

// phases pulls the Algorithm-2/3 phase spans out of a build's span tree.
type phases struct {
	jl, embed, grid, paths, treeBuild *obs.SpanSnapshot
}

func findPhases(root *obs.SpanSnapshot) phases {
	var ph phases
	var walk func(s *obs.SpanSnapshot)
	walk = func(s *obs.SpanSnapshot) {
		switch s.Name {
		case "jl_projection":
			ph.jl = s
		case "tree_embed":
			ph.embed = s
		case "grid_construction":
			ph.grid = s
		case "root_paths":
			ph.paths = s
		case "tree_build":
			ph.treeBuild = s
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return ph
}

func secs(s *obs.SpanSnapshot) float64 {
	if s == nil {
		return 0
	}
	return float64(s.WallNs) / 1e9
}

func allocMB(s *obs.SpanSnapshot) float64 {
	if s == nil {
		return 0
	}
	return float64(s.AllocBytes) / 1e6
}

func metric(s *obs.SpanSnapshot, key string) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Metrics[key])
}

// runBuild measures repeated EmbedMPC builds of one seeded point set.
// Each build starts on a freshly collected heap; only EmbedMPC itself
// is timed, the checks run after the clock stops.
func runBuild(cfg config, tr *tracer, s buildShape) (*result, error) {
	res := newResult()
	seeds := make([]uint64, embedSeeds)
	for j := range seeds {
		seeds[j] = embedSeed(cfg.seed, j)
	}

	// Set-up: point generation and one untimed warm-up build.
	var pts []vec.Point
	var chk *checker
	var setup []float64
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		runtime.GC()
		res.host.sample()
		t0 := time.Now()
		pts = workload.UniformLattice(cfg.seed, s.n, s.d, s.delta)
		t, info, err := mpctree.EmbedMPC(pts, mpcOptions(seeds[0], s.derived, nil))
		setup = append(setup, time.Since(t0).Seconds())
		tr.span(tidMain, "setup", t0, nil)
		if chk == nil {
			chk = newChecker(pts, cfg.seed)
		}
		res.check(chk.check(seeds[0], t, info, err))
	}
	res.e2e["setup_s"] = median(setup)

	var walls, allocs, gcCPU, gcCycles []float64
	var ph []phases
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		es := seeds[i%len(seeds)]
		runtime.GC()
		res.host.sample()
		var span *obs.Span
		if tr != nil {
			span = obs.NewSpan("embed_mpc")
		}
		r0 := readRT()
		t0 := time.Now()
		t, info, err := mpctree.EmbedMPC(pts, mpcOptions(es, s.derived, span))
		wall := time.Since(t0)
		d := readRT().sub(r0)
		if span != nil {
			span.End()
			sn := span.Snapshot()
			tr.graft(tidMain, sn)
			ph = append(ph, findPhases(sn))
		}
		c0 := time.Now()
		err = chk.check(es, t, info, err)
		tr.span(tidMain, "check (Validate, quality.Audit, hash)", c0, nil)
		res.check(err)
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, d.allocBytes/1e6)
		gcCPU = append(gcCPU, d.gcCPU)
		gcCycles = append(gcCycles, d.gcCycles)
	}
	res.e2e["p50_ms"] = 1e3 * median(walls)
	res.e2e["p95_ms"] = 1e3 * quantile(append([]float64(nil), walls...), 0.95)
	res.e2e["ops_per_s"] = 1 / mean(walls)
	res.e2e["alloc_mb_per_op"] = median(allocs)
	chk.modelMetrics(res.e2e)
	fmt.Fprintf(cfg.out, "builds: %d timed (n=%d d=%d derived=%v), seconds %.3f\n", len(walls), s.n, s.d, s.derived, walls)

	if tr == nil {
		return res, nil
	}
	// Per-layer numbers: medians over the traced builds' phase spans.
	col := func(f func(p phases) float64) float64 {
		xs := make([]float64, len(ph))
		for i, p := range ph {
			xs[i] = f(p)
		}
		return median(xs)
	}
	L := res.layer
	L["fjlt.apply_s"] = col(func(p phases) float64 { return secs(p.jl) })
	L["fjlt.comm_words"] = col(func(p phases) float64 { return metric(p.jl, "comm_words") })
	L["fjlt.alloc_mb"] = col(func(p phases) float64 { return allocMB(p.jl) })
	L["mpcembed.grid_construction_s"] = col(func(p phases) float64 { return secs(p.grid) })
	L["mpcembed.grid_construction_alloc_mb"] = col(func(p phases) float64 { return allocMB(p.grid) })
	L["mpcembed.grid_words"] = col(func(p phases) float64 { return metric(p.grid, "grid_words") })
	L["mpc.broadcast_words"] = col(func(p phases) float64 { return metric(p.grid, "comm_words") })
	L["mpcembed.root_paths_s"] = col(func(p phases) float64 { return secs(p.paths) })
	L["mpcembed.root_paths_alloc_mb"] = col(func(p phases) float64 { return allocMB(p.paths) })
	L["mpcembed.tree_build_s"] = col(func(p phases) float64 { return secs(p.treeBuild) })
	L["mpc.rounds.jl_projection"] = col(func(p phases) float64 { return metric(p.jl, "rounds") })
	L["mpc.rounds.tree_embed"] = col(func(p phases) float64 { return metric(p.embed, "rounds") })
	L["trace.phase_sum_s"] = col(func(p phases) float64 { return secs(p.jl) + secs(p.embed) })
	L["trace.build_s"] = median(walls)
	L["runtime.gc_cpu_s"] = median(gcCPU)
	L["runtime.gc_cycles"] = median(gcCycles)

	// The serial baseline: the same build at Workers: 1.
	runtime.GC()
	opt := mpcOptions(seeds[0], s.derived, nil)
	opt.Workers = 1
	t0 := time.Now()
	t, info, err := mpctree.EmbedMPC(pts, opt)
	L["par.workers1_build_s"] = time.Since(t0).Seconds()
	tr.span(tidMain, "embed_mpc workers=1", t0, nil)
	res.check(chk.check(seeds[0], t, info, err))
	return res, nil
}
