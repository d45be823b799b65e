package main

import (
	"bufio"
	"crypto/sha256"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rt samples the runtime counters a timed phase is charged with: heap
// bytes allocated, GC CPU seconds and completed GC cycles. It reads
// runtime/metrics, which does not stop the world.
type rt struct {
	allocBytes float64
	gcCPU      float64
	gcCycles   float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func readRT() rt {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rt{allocBytes: v(0), gcCPU: v(1), gcCycles: v(2)}
}

func (a rt) sub(b rt) rt {
	return rt{allocBytes: a.allocBytes - b.allocBytes, gcCPU: a.gcCPU - b.gcCPU, gcCycles: a.gcCycles - b.gcCycles}
}

// The host-speed probe's reference rates: what its tasks ran at on the
// 2-vCPU host (go1.24.0) this benchmark was tuned on, in that host's
// slower and more common state.
const (
	refHashRate  = 7.0e6 // SHA-256 block hashes per second
	refScanRate  = 1700  // MB per second, read-modify-write
	refChaseRate = 6.0e6 // dependent random reads per second
)

// speedProbe measures how fast the host runs fixed tasks that call
// none of the program's code: SHA-256 over one block (core speed), a
// read-modify-write pass over 32 MB (memory bandwidth) and a chain of
// dependent random reads over 16 MB (cache and memory latency). On a
// shared host all three drift by up to 40% over minutes, and the
// program's wall times drift with them. Every end-to-end timing is
// scaled by the median of a run's samples, so it reads as the time the
// run would have taken on the reference host.
type speedProbe struct {
	scan    []uint64
	chase   []uint32 // one random cycle through every index
	sink    uint64
	samples [][]float64 // each task's rate over its reference rate
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{scan: make([]uint64, 4<<20), chase: make([]uint32, 4<<20)}
	// Sattolo's shuffle: a single cycle, so the chain visits every slot.
	for i := range p.chase {
		p.chase[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(p.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p.chase[i], p.chase[j] = p.chase[j], p.chase[i]
	}
	return p
}

const probeTask = 15 * time.Millisecond // per task, per sample

// sample runs each task once and records its rate relative to the
// reference rate. It returns the time it took, which callers leave out
// of their timed phase.
func (p *speedProbe) sample() time.Duration {
	start := time.Now()
	var h [32]byte
	hashes := 0
	for time.Since(start) < probeTask {
		for i := 0; i < 64; i++ {
			h = sha256.Sum256(h[:])
		}
		hashes += 64
	}
	hashRate := float64(hashes) / time.Since(start).Seconds()

	t0 := time.Now()
	words := 0
	s := uint64(h[0])
	for time.Since(t0) < probeTask {
		for i := range p.scan[:1<<18] {
			p.scan[(words+i)&(len(p.scan)-1)] += s
			s += p.scan[(words+i)&(len(p.scan)-1)] >> 3
		}
		words += 1 << 18
	}
	scanRate := float64(words*8) / 1e6 / time.Since(t0).Seconds()

	t0 = time.Now()
	reads := 0
	at := uint32(s) & uint32(len(p.chase)-1)
	for time.Since(t0) < probeTask {
		for i := 0; i < 1<<14; i++ {
			at = p.chase[at]
		}
		reads += 1 << 14
	}
	chaseRate := float64(reads) / time.Since(t0).Seconds()
	p.sink += s + uint64(at)

	p.samples = append(p.samples, []float64{hashRate / refHashRate, scanRate / refScanRate, chaseRate / refChaseRate})
	return time.Since(start)
}

// probeTasks names the tasks in a sample's order.
var probeTasks = []string{"hash", "scan", "chase"}

// component is the median of one task's relative rate over the run.
func (p *speedProbe) component(k int) float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = s[k]
	}
	return median(xs)
}

// speed is the host's speed over the run relative to the reference
// host: the geometric mean of the tasks' median relative rates (1 when
// no sample was taken).
func (p *speedProbe) speed() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	k := len(p.samples[0])
	logSum := 0.0
	for i := 0; i < k; i++ {
		logSum += math.Log(p.component(i))
	}
	return math.Exp(logSum / float64(k))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return "nproc=" + strconv.Itoa(runtime.NumCPU()) + " GOMAXPROCS=" + strconv.Itoa(runtime.GOMAXPROCS(0)) +
		" go=" + runtime.Version() + " cpu=" + model
}
