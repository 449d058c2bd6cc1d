package server

import (
	"sort"
	"sync"

	"repro/internal/obs"
)

// obsLog is a session's published engine-event stream: the bridge
// between the engine's single-writer obs rings and the concurrent
// readers of the /obs endpoint and the flight recorder. The engine
// goroutine drains its stream ring into the log at every quantum
// boundary (and once more on exit); everything after that point is
// mutex-guarded and safe from any goroutine.
//
// Entries carry the event's 1-based global sequence number — its
// position in the run's deterministic emission order. The numbering is
// stable across evictions, resumes and process restarts: a resumed
// engine re-executes from cycle zero and re-emits the same sequence,
// and publishFrom's cursor skips the already-published prefix. The log
// itself is bounded; entries that fall off the front (like events the
// engine's ring overwrote between publishes) surface to readers as an
// explicit leading gap, never as silent loss.
type obsLog struct {
	mu  sync.Mutex
	cap int
	buf []obsEntry
	// published counts stream-ring events consumed so far — the global
	// index the next publish resumes from, and the sequence number of
	// the newest entry.
	published uint64
	closed    bool
	notify    chan struct{}
}

// obsEntry is one published engine event with its global sequence
// number.
type obsEntry struct {
	seq uint64
	ev  obs.Event
}

func newObsLog(capacity int) *obsLog {
	return &obsLog{cap: capacity, notify: make(chan struct{})}
}

// publishFrom appends everything the ring holds past the log's cursor.
// Called from the engine goroutine only (ring reads must stay on the
// writer's side). Events the ring already overwrote advance the cursor
// without entries — the seq discontinuity is the durable record of the
// loss.
func (l *obsLog) publishFrom(r *obs.Ring) {
	if r == nil {
		return
	}
	l.mu.Lock()
	evs, dropped := r.Since(l.published)
	if dropped == 0 && len(evs) == 0 {
		l.mu.Unlock()
		return
	}
	seq := l.published + dropped
	for i := range evs {
		seq++
		l.buf = append(l.buf, obsEntry{seq: seq, ev: evs[i]})
	}
	l.published = seq
	if len(l.buf) > l.cap {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-l.cap:]...)
	}
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// since returns the entries with seq > after, the channel closed at
// the next publish (or close), and whether the log is closed — closed
// plus an empty tail means a follower is done.
func (l *obsLog) since(after uint64) ([]obsEntry, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Sequence numbers ascend through the buffer, so the tail starts at
	// the first seq > after.
	i := sort.Search(len(l.buf), func(i int) bool { return l.buf[i].seq > after })
	var out []obsEntry
	if i < len(l.buf) {
		out = make([]obsEntry, len(l.buf)-i)
		copy(out, l.buf[i:])
	}
	return out, l.notify, l.closed
}

// export returns the published cursor and a copy of the retained tail,
// for shipping in a migration envelope.
func (l *obsLog) export() (uint64, []obsEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tail := make([]obsEntry, len(l.buf))
	copy(tail, l.buf)
	return l.published, tail
}

// preload seeds a fresh log with a migrated-in cursor and tail. The
// resumed engine will re-emit the deterministic sequence from zero;
// publishFrom's cursor then skips the already-published prefix, so
// followers of /obs continue gap-free across the handoff.
func (l *obsLog) preload(published uint64, entries []obsEntry) {
	l.mu.Lock()
	l.published = published
	l.buf = append(l.buf[:0], entries...)
	if len(l.buf) > l.cap {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-l.cap:]...)
	}
	l.mu.Unlock()
}

// close marks the stream complete (session done, failed or deleted)
// and wakes every follower so it can drain and finish.
func (l *obsLog) close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.notify)
		l.notify = make(chan struct{})
	}
	l.mu.Unlock()
}
