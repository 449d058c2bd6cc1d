package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/platform"
)

// span is one traced interval: a grid round, a cell, an rt.Engine.Run,
// a session, a session step or resume. Spans are kept in memory and
// written out when the run ends.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // since the tracer's epoch
	cat        string        // workload-level grouping (cell key, session id)
}

// tracer records spans for one traced pass; it is safe for use by
// several client goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name, cat string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, cat: cat,
		start: time.Since(t.epoch)})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, at time.Time) {
	t.mu.Lock()
	t.spans[id-1].end = at.Sub(t.epoch)
	t.mu.Unlock()
}

// add records a span measured elsewhere (a client goroutine's step).
func (t *tracer) add(name, cat string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, cat: cat,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans)
}

// selfTimes returns each span's duration minus the time its direct
// children cover, indexed by span id-1.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// write dumps the spans as Chrome trace-event JSON (one lane per span
// category), with each span's self time as an argument.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  string         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfTimes()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString("[\n")
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteString(",")
		}
		err := enc.Encode(event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.cat,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent,
				"self_us": float64(self[i].Nanoseconds()) / 1e3},
		})
		if err != nil {
			return err
		}
	}
	bw.WriteString("]\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layerAcc sums time and call counts at the platform seam. There are
// about a million seam calls in a fine-grain round, so they are summed,
// not recorded as spans.
type layerAcc struct {
	applyNs, touchNs, advanceNs    time.Duration
	applyCalls, touchCalls, access uint64
}

func (a *layerAcc) machineTime() time.Duration { return a.applyNs + a.touchNs + a.advanceNs }

// timedPlatform wraps a platform.Platform (platform/sim here) and times
// the memory-activity entry points: Apply (data side: machine coherence
// plus the cachesim sweep), TouchCode (instruction side) and
// Advance/AdvanceCycles. The engine calls the platform from one
// goroutine at a time, handing control over channels, so the plain
// counters are ordered by those handoffs.
type timedPlatform struct {
	platform.Platform
	acc *layerAcc
}

func (p timedPlatform) Apply(cpu int, tid mem.ThreadID, batch mem.Batch) uint64 {
	t0 := time.Now()
	n := p.Platform.Apply(cpu, tid, batch)
	p.acc.applyNs += time.Since(t0)
	p.acc.applyCalls++
	p.acc.access += uint64(batch.Refs())
	return n
}

func (p timedPlatform) TouchCode(cpu int, tid mem.ThreadID, code mem.Range) {
	t0 := time.Now()
	p.Platform.TouchCode(cpu, tid, code)
	p.acc.touchNs += time.Since(t0)
	p.acc.touchCalls++
}

func (p timedPlatform) Advance(cpu int, instrs uint64) {
	t0 := time.Now()
	p.Platform.Advance(cpu, instrs)
	p.acc.advanceNs += time.Since(t0)
}

func (p timedPlatform) AdvanceCycles(cpu int, cycles uint64) {
	t0 := time.Now()
	p.Platform.AdvanceCycles(cpu, cycles)
	p.acc.advanceNs += time.Since(t0)
}

// goSample is a runtime/metrics reading of this process.
type goSample struct {
	gcCPU, allocBytes, allocObjs float64
	schedLat                     *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	g := goSample{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.allocObjs = float64(s[2].Value.Uint64())
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		g.schedLat = &metrics.Float64Histogram{
			Counts: append([]uint64(nil), h.Counts...), Buckets: append([]float64(nil), h.Buckets...)}
	}
	return g
}

// goDelta sets the go.* metrics from two samples, per round.
func goDelta(m map[string]float64, a, b goSample, rounds float64) error {
	m["go.gc_cpu_s"] = (b.gcCPU - a.gcCPU) / rounds
	m["go.alloc_mb"] = (b.allocBytes - a.allocBytes) / rounds / (1 << 20)
	m["go.allocs"] = (b.allocObjs - a.allocObjs) / rounds
	if a.schedLat == nil || b.schedLat == nil {
		return fmt.Errorf("runtime/metrics has no scheduler latency histogram")
	}
	// p99 of the scheduling latencies observed between the samples,
	// reported as the upper edge of the bucket holding it.
	counts := make([]uint64, len(b.schedLat.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
		total += counts[i]
	}
	m["go.sched_latency_p99_us"] = 0
	if total == 0 {
		return nil
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			hi := b.schedLat.Buckets[i+1]
			if hi > 1e9 { // +Inf bucket: fall back to its lower edge
				hi = b.schedLat.Buckets[i]
			}
			m["go.sched_latency_p99_us"] = hi * 1e6
			break
		}
	}
	return nil
}
