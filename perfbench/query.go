package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpctree"
	"mpctree/internal/gate"
	"mpctree/internal/hst"
	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
	"mpctree/internal/serve"
	"mpctree/internal/treestore"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// queryShape sizes the served forest: clustered points (the nearest-
// neighbour structure a tree metric serves well), embedded with unary
// chains compressed as a served tree would be.
type queryShape struct {
	n, d, delta int
	clusters    int
	sigma       float64
}

// The served forest: an ensemble of separately seeded trees, each held
// by every replica.
const (
	members  = 3
	replicas = 3
)

// The closed loop uses one client connection: on a 2-core host, two
// closed-loop clients made request rates swing ±18% between runs of one
// seed as their goroutines and the fleet's competed for the cores, and
// one client kept them within ±6%. The open loop uses two, so a slow
// request does not hold back the next due one.
const openConns = 2

func queryShapeFor(cfg config) queryShape {
	if cfg.tiny {
		return queryShape{n: 128, d: 8, delta: 256, clusters: 4, sigma: 8}
	}
	return queryShape{n: 4096, d: 16, delta: 1 << 10, clusters: 16, sigma: 20}
}

const (
	distBatch = 16  // pairs per dist request, points per knn request ×4
	maxScale  = 1e5 // cut scales are log-uniform in [1, maxScale]
)

// server is one in-process HTTP server on a real loopback socket.
type server struct {
	url  string
	mux  *http.ServeMux
	srv  *http.Server
	done chan struct{}
}

func listen(mux *http.ServeMux) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), mux: mux, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// fleet is the serving tier under test: a tree store, replicas loading
// from it, and a gate in front, all in this process.
type fleet struct {
	oracle   *oracle
	names    []string
	storeDir string
	replicas []*server
	gw       *gate.Gateway
	gateSrv  *server
	gateReg  *obs.Registry
	loadS    []float64 // per replica: seconds to load every tree from the store
}

func (f *fleet) close() {
	if f.gateSrv != nil {
		f.gateSrv.close()
	}
	if f.gw != nil {
		f.gw.Stop()
	}
	for _, r := range f.replicas {
		r.close()
	}
	if f.storeDir != "" {
		_ = os.RemoveAll(f.storeDir)
	}
}

// startFleet builds the member trees, publishes them to a fresh store,
// and starts the replicas and the gate. The checker verifies each tree
// and that every set-up builds the same trees.
func startFleet(cfg config, s queryShape, pts []vec.Point, chk *checker) (*fleet, error) {
	f := &fleet{}
	var trees []*hst.Tree
	for i := 0; i < members; i++ {
		es := embedSeed(cfg.seed, i)
		opt := mpcOptions(es, true, nil)
		opt.Pipeline.Embed.Compress = true
		t, info, err := mpctree.EmbedMPC(pts, opt)
		if err := chk.check(es, t, info, err); err != nil {
			return nil, err
		}
		trees = append(trees, t)
		f.names = append(f.names, memberName(i))
	}
	f.oracle = newOracle(trees)

	dir, err := os.MkdirTemp(cfg.workDir, "perfbench-store-")
	if err != nil {
		return nil, err
	}
	f.storeDir = dir
	st, err := treestore.Open(dir)
	if err != nil {
		f.close()
		return nil, err
	}
	for i, t := range trees {
		if _, err := st.Save(f.names[i], t); err != nil {
			f.close()
			return nil, err
		}
	}

	backends := make([]string, replicas)
	for i := range backends {
		reg := obs.New()
		trees := serve.NewRegistry(reg)
		t0 := time.Now()
		for _, name := range f.names {
			if err := trees.LoadWith(name, serve.StoreLoader(st, name)); err != nil {
				f.close()
				return nil, err
			}
		}
		f.loadS = append(f.loadS, time.Since(t0).Seconds())
		mux := http.NewServeMux()
		serve.NewServer(trees, serve.Options{Obs: reg}).RegisterMux(mux)
		srv, err := listen(mux)
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, srv)
		backends[i] = srv.url
	}

	// treegate's defaults: 4096-entry cache, double-check every 64th hit.
	f.gateReg = obs.New()
	gw, err := gate.New(gate.Options{
		Backends:        backends,
		Ensembles:       map[string][]string{ensembleName: f.names},
		CacheSize:       4096,
		CacheCheckEvery: 64,
		Retry:           mpcnet.RetryPolicy{MaxAttempts: 4, Seed: 1},
		Obs:             f.gateReg,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	gw.Start()
	f.gw = gw
	mux := http.NewServeMux()
	gw.RegisterMux(mux)
	if f.gateSrv, err = listen(mux); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// counter sums a registry's series of one family.
func counter(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, v := range reg.Snapshot() {
		if v.Name == name {
			total += v.Value
		}
	}
	return total
}

type gateCounters struct{ forwards, retries, backendErrs, hits, misses float64 }

func readGate(reg *obs.Registry) gateCounters {
	return gateCounters{
		forwards:    counter(reg, "gate_backend_requests_total"),
		retries:     counter(reg, "gate_retries_total"),
		backendErrs: counter(reg, "gate_backend_errors_total"),
		hits:        counter(reg, "gate_cache_hits_total"),
		misses:      counter(reg, "gate_cache_misses_total"),
	}
}

// client posts requests over at most conns keep-alive connections.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) post(base string, req request) ([]byte, error) {
	resp, err := c.hc.Post(base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// stream builds count requests from the seeded mix. Plain requests
// name the member trees in turn, so a run's cost averages over all of
// them; with ensemble set every ensembleEvery-th dist goes to the
// ensemble.
func stream(seed uint64, n, count int, mix workload.QueryMix, ensemble bool) ([]request, error) {
	qs := workload.Queries(seed, n, count, distBatch, maxScale, mix)
	out := make([]request, len(qs))
	dists := 0
	for i, q := range qs {
		toEnsemble := false
		if q.Kind == workload.QueryDist {
			dists++
			toEnsemble = ensemble && dists%ensembleEvery == 0
		}
		r, err := newRequest(q, i%members, toEnsemble)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// loopStats is what a closed or open loop measured.
type loopStats struct {
	requests, failed int
	firstErr         string
	lat              []float64 // ms
	late             []float64 // ms, open loop: send time past due time
	verify           time.Duration
	wall             time.Duration
}

func (st *loopStats) record(err error) {
	st.requests++
	if err != nil {
		st.failed++
		if st.firstErr == "" {
			st.firstErr = err.Error()
		}
	}
}

// The closed loop pauses to sample the host's speed this often.
const hostProbeEvery = 500 * time.Millisecond

// closedLoop sends reqs through the gate from one client, which sends
// its next request only after the previous answer was checked, until
// the duration ends or the requests run out. With cycle set the client
// wraps around reqs (the hot set). Every hostProbeEvery it samples
// host's speed between two requests; the pauses are left out of wall.
func closedLoop(f *fleet, reqs []request, dur time.Duration, cycle bool, host *speedProbe, tr *tracer) loopStats {
	c := newClient(1)
	defer c.close()
	var st loopStats
	var paused time.Duration
	start := time.Now()
	deadline := start.Add(dur)
	nextProbe := start
	for i := 0; time.Now().Before(deadline); i++ {
		if !time.Now().Before(nextProbe) {
			paused += host.sample()
			nextProbe = time.Now().Add(hostProbeEvery)
		}
		if i == len(reqs) {
			if !cycle {
				break
			}
			i = 0
		}
		req := reqs[i]
		t0 := time.Now()
		body, err := c.post(f.gateSrv.url, req)
		st.lat = append(st.lat, ms(time.Since(t0)))
		if tr != nil {
			tr.span(tidClient, "gate "+req.path, t0, nil)
		}
		v0 := time.Now()
		if err == nil {
			err = f.oracle.verify(req, body)
		}
		st.verify += time.Since(v0)
		st.record(err)
	}
	st.wall = time.Since(start) - paused
	return st
}

// openLoop sends reqs through the gate at a fixed rate over conns
// connections. Each request is timed from its due time, so a stall
// charges every request queued behind it; late records how far past
// its due time each request was sent.
func openLoop(f *fleet, reqs []request, conns int, rate float64, dur time.Duration, tr *tracer) loopStats {
	c := newClient(conns)
	defer c.close()
	total := int(rate * dur.Seconds())
	if total > len(reqs) {
		total = len(reqs)
	}
	interval := time.Duration(float64(time.Second) / rate)
	per := make([]loopStats, conns)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			st := &per[ci]
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				st.late = append(st.late, ms(sent.Sub(due)))
				req := reqs[k]
				body, err := c.post(f.gateSrv.url, req)
				st.lat = append(st.lat, ms(time.Since(due)))
				if tr != nil {
					tr.span(tidOpen+ci, "open "+req.path, sent, nil)
				}
				if err == nil {
					err = f.oracle.verify(req, body)
				}
				st.record(err)
			}
		}(ci)
	}
	wg.Wait()
	var out loopStats
	out.wall = time.Since(start)
	for _, st := range per {
		out.requests += st.requests
		out.failed += st.failed
		out.lat = append(out.lat, st.lat...)
		out.late = append(out.late, st.late...)
		if out.firstErr == "" {
			out.firstErr = st.firstErr
		}
	}
	return out
}

func (r *result) addLoop(st loopStats) {
	r.attempted += st.requests
	r.failed += st.failed
	if r.firstErr == "" {
		r.firstErr = st.firstErr
	}
}

func runQueryCold(cfg config, tr *tracer) (*result, error) { return runQuery(cfg, tr, false) }
func runQueryHot(cfg config, tr *tracer) (*result, error)  { return runQuery(cfg, tr, true) }

// Sizes of the query streams.
const (
	hotSet       = 1024 // distinct dist/knn requests on query-hot; fits the 4096-entry cache
	warmupCold   = 200  // requests in query-cold's warm-up pass
	streamPerSec = 8000 // distinct requests generated per second of closed loop
	probeSample  = 60   // requests per kind in each sequential probe

	// The open loop fell behind when its p99 lateness exceeds this many
	// closed-loop p99 latencies.
	fellBehindFactor = 20.0
)

// runQuery measures one query workload. Set-up (tree builds, store
// publish, replica and gate start, warm-up or cache-fill pass) is
// repeated and only the last fleet is kept; the timed closed loop
// starts on a freshly collected heap and runs no build.
func runQuery(cfg config, tr *tracer, hot bool) (*result, error) {
	s := queryShapeFor(cfg)
	res := newResult()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	pts := workload.GaussianClusters(cfg.seed, s.n, s.d, s.clusters, s.sigma, s.delta)
	chk := newChecker(pts, cfg.seed)

	// The timed stream, the warm-up stream and the probe stream are
	// disjoint: query-cold never sends one body twice.
	var timed, warm, probe []request
	var err error
	if hot {
		if timed, err = stream(cfg.seed, s.n, hotSet, workload.QueryMix{Dist: 3, KNN: 1}, false); err != nil {
			return nil, err
		}
		warm, probe = timed, timed
	} else {
		count := int(streamPerSec * cfg.seconds)
		if timed, err = stream(cfg.seed, s.n, count, workload.DefaultQueryMix(), true); err != nil {
			return nil, err
		}
		if warm, err = stream(cfg.seed^0x5eed_0001, s.n, warmupCold, workload.DefaultQueryMix(), true); err != nil {
			return nil, err
		}
		if probe, err = stream(cfg.seed^0x5eed_0002, s.n, 20*probeSample, workload.DefaultQueryMix(), true); err != nil {
			return nil, err
		}
	}

	var f *fleet
	var setup []float64
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		res.host.sample()
		t0 := time.Now()
		if f, err = startFleet(cfg, s, pts, chk); err != nil {
			return nil, err
		}
		if hot {
			// The hot set's serial answers are computed once, so the
			// closed loop's checks cost a decode and a compare.
			for i := range timed {
				timed[i].want = f.oracle.solve(timed[i])
			}
		}
		warmC := newClient(1)
		for _, req := range warm {
			body, err := warmC.post(f.gateSrv.url, req)
			if err == nil {
				err = f.oracle.verify(req, body)
			}
			res.check(err)
		}
		warmC.close()
		setup = append(setup, time.Since(t0).Seconds())
		tr.span(tidMain, "setup (EmbedMPC ×3, treestore, replicas, gate, warm-up)", t0, nil)
	}
	defer f.close()
	res.e2e["setup_s"] = median(setup)
	chk.modelMetrics(res.e2e)
	tr.nameThread(tidClient, "closed-loop client")
	for i := 0; i < openConns; i++ {
		tr.nameThread(tidOpen+i, fmt.Sprintf("open-loop connection %d", i))
	}

	// The closed loop is serial: one request in flight, and each hop
	// (client, gate, replica) waits for the one before it. With two Ps
	// every hop hands off to a goroutine woken on the other vCPU; on the
	// 2-vCPU host such wakeups cost more than the gate and replica code
	// together and swing with the host's load (query-hot ran at 6.3k–6.9k
	// req/s with p95 0.29–0.33 ms at GOMAXPROCS 2, and 9.4k–10.1k req/s
	// with p95 0.12–0.13 ms at 1). Set-up, which builds trees in parallel,
	// runs at the default; the rest of the workload runs on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fmt.Fprintln(cfg.out, "timed phase: GOMAXPROCS 1")

	g0 := readGate(f.gateReg)
	runtime.GC()
	r0 := readRT()
	st := closedLoop(f, timed, dur, hot, res.host, tr)
	d := readRT().sub(r0)
	g := readGate(f.gateReg)
	res.addLoop(st)
	if st.requests == 0 {
		return nil, errors.New("closed loop sent no requests")
	}
	// The client's own checks (decoding each answer and recomputing it
	// with serial hst.Tree calls) share the core with the fleet; they
	// took about a quarter of each request's cycle on query-cold. The
	// rate is therefore per second of serving, with the checks left out.
	qps := float64(st.requests) / (st.wall - st.verify).Seconds()
	cycleRate := float64(st.requests) / st.wall.Seconds() // checks included
	logKinds(cfg.out, timed, st.lat)
	res.e2e["ops_per_s"] = qps
	res.e2e["p50_ms"] = quantile(st.lat, 0.50)
	res.e2e["p95_ms"] = quantile(st.lat, 0.95)
	res.e2e["alloc_mb_per_op"] = d.allocBytes / 1e6 / float64(st.requests)
	fmt.Fprintf(cfg.out, "closed loop: %d requests over 1 connection in %.2fs (%.2fs of it in the client's checks, %.0f req/s with them), %.0f req/s of serving, p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms (%d samples, %d beyond p95)\n",
		st.requests, st.wall.Seconds(), st.verify.Seconds(), cycleRate, qps, res.e2e["p50_ms"], quantile(st.lat, 0.90), res.e2e["p95_ms"], quantile(st.lat, 0.99), len(st.lat), len(st.lat)/20)

	if tr == nil {
		checkCache(f, res)
		return res, nil
	}

	L := res.layer
	per1k := 1000 / float64(st.requests)
	L["runtime.gc_cpu_s"] = d.gcCPU * per1k
	L["runtime.gc_cycles"] = d.gcCycles * per1k
	L["gate.forwards"] = (g.forwards - g0.forwards) * per1k
	L["gate.retries"] = (g.retries - g0.retries) * per1k
	L["gate.backend_errors"] = (g.backendErrs - g0.backendErrs) * per1k
	if lookups := (g.hits - g0.hits) + (g.misses - g0.misses); lookups > 0 {
		L["gate.cache_hit_ratio"] = (g.hits - g0.hits) / lookups
	}
	L["loadgen.verify_us"] = us(st.verify) / float64(st.requests)
	L["treestore.load_s"] = median(f.loadS)

	if !hot {
		// Open loop at half the closed loop's capacity, on requests the
		// closed loop never reached.
		rest := timed[min(st.requests, len(timed)):]
		ol := openLoop(f, rest, openConns, cycleRate/2, dur/2, tr)
		res.addLoop(ol)
		// Queueing behind the two connections makes some sends late at
		// any rate; a backlog that never drains makes lateness grow far
		// past any single request's latency.
		late := quantile(ol.late, 0.99)
		L["loadgen.late_p99_ms"] = late
		if limit := fellBehindFactor * quantile(st.lat, 0.99); late <= limit {
			L["loadgen.open_p50_ms"] = quantile(ol.lat, 0.50)
		} else {
			fmt.Fprintf(cfg.out, "open loop: generator fell behind (late p99 %.3f ms > %g × closed-loop p99); open_p50_ms not reported\n",
				late, fellBehindFactor)
		}
		fmt.Fprintf(cfg.out, "open loop: %d requests at %.0f req/s, p50 %.3f ms from due time, late p99 %.3f ms\n",
			ol.requests, cycleRate/2, quantile(ol.lat, 0.5), late)
	}
	if err := probes(f, probe, res, tr); err != nil {
		return nil, err
	}
	checkCache(f, res)
	return res, nil
}

// checkCache fails the run if any of the gate's every-64th-hit
// double-checks found a cached answer differing from the live one.
func checkCache(f *fleet, res *result) {
	mismatches := counter(f.gateReg, "gate_cache_mismatch_total")
	if mismatches != 0 {
		res.check(fmt.Errorf("gate answer cache: %v mismatches", mismatches))
	}
	res.layer["gate.cache_mismatches"] = mismatches
}

// serveInProcess calls mux for req without a socket and returns the
// response body and how long the handler took.
func serveInProcess(mux *http.ServeMux, req request) ([]byte, http.Header, time.Duration, error) {
	hr, err := http.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	if err != nil {
		return nil, nil, 0, err
	}
	w := httptest.NewRecorder()
	t0 := time.Now()
	mux.ServeHTTP(w, hr)
	d := time.Since(t0)
	if w.Code != http.StatusOK {
		return nil, nil, d, fmt.Errorf("%s in process: HTTP %d: %s", req.path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	return w.Body.Bytes(), w.Header(), d, nil
}

// probes times single layers, one request at a time, on the workload's
// own kind of requests: the hst kernels, the replica handler in
// process, a replica and the gate over a socket, and gate cache hits
// in process.
func probes(f *fleet, reqs []request, res *result, tr *tracer) error {
	L := res.layer
	// Pick up to probeSample plain requests of each kind, plus ensemble
	// dists.
	var plain, ens []request
	perKind := map[workload.QueryKind]int{}
	for _, r := range reqs {
		if r.target == ensembleName {
			if len(ens) < probeSample {
				ens = append(ens, r)
			}
			continue
		}
		if perKind[r.q.Kind] < probeSample {
			perKind[r.q.Kind]++
			plain = append(plain, r)
		}
	}

	// Kernels and the replica handler, in process.
	kernel := map[workload.QueryKind][]float64{}
	handler := map[workload.QueryKind][]float64{}
	var kernelSum, handlerSum time.Duration
	for _, r := range plain {
		var mu, nu []float64
		if r.q.Kind == workload.QueryEMD {
			var err error
			if mu, nu, err = measures(r.q, f.oracle.trees[r.member].NumPoints()); err != nil {
				return err
			}
		}
		t0 := time.Now()
		f.oracle.kernel(r, mu, nu)
		kd := time.Since(t0)
		tr.span(tidMain, "hst."+r.q.Kind.String(), t0, nil)
		kernel[r.q.Kind] = append(kernel[r.q.Kind], us(kd))

		h0 := time.Now()
		body, _, hd, err := serveInProcess(f.replicas[0].mux, r)
		tr.span(tidMain, "serve handler "+r.path, h0, nil)
		if err == nil {
			err = f.oracle.verify(r, body)
		}
		res.check(err)
		handler[r.q.Kind] = append(handler[r.q.Kind], us(hd))
		kernelSum += kd
		handlerSum += hd
	}
	for _, k := range []workload.QueryKind{workload.QueryDist, workload.QueryKNN, workload.QueryCut, workload.QueryEMD, workload.QueryMedoid} {
		L["hst."+k.String()+"_us"] = mean(kernel[k])
		L["serve.handler_us."+k.String()] = mean(handler[k])
	}
	if len(plain) > 0 {
		L["serve.codec_us"] = us(handlerSum-kernelSum) / float64(len(plain))
	}

	// One request at a time over a socket: straight to a replica, then
	// through the gate (cache misses on query-cold, hits on query-hot).
	direct := sequential(f, f.replicas[0].url, plain, res, tr, "replica socket ")
	viaGate := sequential(f, f.gateSrv.url, plain, res, tr, "gate socket ")
	L["serve.socket_p50_ms"] = quantile(direct, 0.5)
	L["gate.overhead_us"] = 1e3 * (quantile(viaGate, 0.5) - quantile(direct, 0.5))
	if len(ens) > 0 {
		L["gate.ensemble_us"] = 1e3 * quantile(sequential(f, f.gateSrv.url, ens, res, tr, "gate ensemble "), 0.5)
	}

	// Gate cache hits in process: every dist/knn sample has now been
	// through the gate once, so repeating it hits.
	var hits []float64
	for _, r := range plain {
		if r.q.Kind != workload.QueryDist && r.q.Kind != workload.QueryKNN {
			continue
		}
		h0 := time.Now()
		body, hdr, d, err := serveInProcess(f.gateSrv.mux, r)
		tr.span(tidMain, "gate hit "+r.path, h0, nil)
		if err == nil {
			err = f.oracle.verify(r, body)
		}
		res.check(err)
		if hdr.Get("X-Gate-Cache") == "hit" {
			hits = append(hits, us(d))
		}
	}
	L["gate.hit_us"] = mean(hits)
	return nil
}

// sequential sends reqs one at a time to base over one connection and
// returns their latencies in ms.
func sequential(f *fleet, base string, reqs []request, res *result, tr *tracer, label string) []float64 {
	c := newClient(1)
	defer c.close()
	lat := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		t0 := time.Now()
		body, err := c.post(base, r)
		lat = append(lat, ms(time.Since(t0)))
		tr.span(tidMain, label+r.path, t0, nil)
		if err == nil {
			err = f.oracle.verify(r, body)
		}
		res.check(err)
	}
	return lat
}

// logKinds logs each request kind's share of the closed loop and its
// latency quantiles. lat[i] is the latency of reqs[i mod len(reqs)].
func logKinds(out io.Writer, reqs []request, lat []float64) {
	byKind := map[string][]float64{}
	for i, l := range lat {
		r := reqs[i%len(reqs)]
		k := r.q.Kind.String()
		if r.target == ensembleName {
			k = "ensemble"
		}
		byKind[k] = append(byKind[k], l)
	}
	for _, k := range []string{"dist", "ensemble", "knn", "cut", "emd", "medoid"} {
		if xs := byKind[k]; len(xs) > 0 {
			fmt.Fprintf(out, "  %-8s %5.1f%%  p50 %.3f ms  p95 %.3f ms\n", k, 100*float64(len(xs))/float64(len(lat)), quantile(xs, 0.5), quantile(xs, 0.95))
		}
	}
}
