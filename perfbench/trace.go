package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mpctree/internal/obs"
)

// tracer keeps spans recorded around layer calls in memory and writes
// them as Chrome trace-event JSON (loadable by Perfetto) when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per span.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	events  []traceEvent
	threads map[int]string
	dropped int
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs since the tracer started
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Track ids: one per kind of caller, so Perfetto draws them as rows.
const (
	tidMain   = 1 // set-up, builds and probes
	tidClient = 2 // the closed-loop client
	tidOpen   = 3 // open-loop connections start here (tidOpen+i)
)

// maxEvents bounds the in-memory trace; spans past it are counted, not
// kept.
const maxEvents = 400_000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), threads: map[int]string{tidMain: "main"}}
}

func (t *tracer) nameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

func (t *tracer) add(e traceEvent) {
	t.mu.Lock()
	if len(t.events) < maxEvents {
		t.events = append(t.events, e)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// span records [start, now) under name on track tid.
func (t *tracer) span(tid int, name string, start time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.add(traceEvent{Name: name, Ph: "X", Ts: us(start.Sub(t.t0)), Dur: us(time.Since(start)), Pid: 1, Tid: tid, Args: args})
}

// graft adds a span tree the program returned (MPCOptions.Span) under
// track tid, keeping its own timing, allocation and model metrics.
func (t *tracer) graft(tid int, sn *obs.SpanSnapshot) {
	if t == nil || sn == nil {
		return
	}
	args := map[string]any{"alloc_bytes": sn.AllocBytes}
	for k, v := range sn.Metrics {
		args[k] = v
	}
	start := float64(sn.StartUnixNs-t.t0.UnixNano()) / 1e3
	t.add(traceEvent{Name: sn.Name, Ph: "X", Ts: start, Dur: float64(sn.WallNs) / 1e3, Pid: 1, Tid: tid, Args: args})
	for _, c := range sn.Children {
		t.graft(tid, c)
	}
}

// write stores the trace as {"traceEvents": [...]} at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]traceEvent, 0, len(t.events)+len(t.threads)+1)
	evs = append(evs, traceEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}})
	for tid, name := range t.threads {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
	}
	evs = append(evs, t.events...)
	doc := map[string]any{"traceEvents": evs, "displayTimeUnit": "ms",
		"otherData": map[string]any{"dropped_spans": t.dropped}}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
