package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sessionApp is one Table 4 app as the sessions workload runs it: a
// scale at which one session takes tens of milliseconds of engine time
// on 8 CPUs, and per policy a quantum that cuts the run into about
// stepsPerSession steps. The quanta were measured: a step can cross
// several quanta at once (merge's clock jumps), so merge's quantum is
// well below its simulated cycles over stepsPerSession.
type sessionApp struct {
	name    string
	scale   float64
	quantum map[string]uint64
}

const (
	sessionCPUs     = 8
	stepsPerSession = 25
	atsimdStarts    = 9
	// refEvery is how often the load pauses for the host reference.
	refEvery = time.Second
	// maxRetries bounds the retries of one HTTP operation on 429, 503,
	// 504 and transport errors.
	maxRetries = 5
)

var (
	sessionApps = []sessionApp{
		{"tasks", 0.2, map[string]uint64{"FCFS": 133_000, "LFF": 70_000, "CRT": 70_000}},
		{"merge", 0.25, map[string]uint64{"FCFS": 44_000, "LFF": 40_000, "CRT": 45_000}},
		{"photo", 0.06, map[string]uint64{"FCFS": 29_000, "LFF": 30_000, "CRT": 30_000}},
		{"tsp", 0.02, map[string]uint64{"FCFS": 68_000, "LFF": 66_000, "CRT": 65_000}},
	}
	// evictPoints are the fractions of a session's steps after which
	// the evicted member of a pair is evicted.
	evictPoints = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
)

// sessionPlan is one generated session: the evicted member (role 0) or
// its never-evicted twin (role 1) of a pair with the same config.
type sessionPlan struct {
	index     int
	evicted   bool
	point     int    // index into evictPoints
	evictStep uint64 // step after which the evicted member is evicted
	config    map[string]any
}

func planSession(seed uint64, index int) sessionPlan {
	pair := index / 2
	app := sessionApps[pair%len(sessionApps)]
	point := pair % len(evictPoints)
	policy := cellPolicies[(pair/len(sessionApps))%len(cellPolicies)]
	return sessionPlan{
		index: index, evicted: index%2 == 0, point: point,
		evictStep: uint64(max(1, math.Round(evictPoints[point]*stepsPerSession))),
		config: map[string]any{
			"app": app.name, "policy": policy,
			"cpus": sessionCPUs, "scale": app.scale, "seed": splitmix(seed, 100+uint64(pair)),
			"quantum": app.quantum[policy],
		},
	}
}

// result is the final result a done session reports.
type result struct {
	Fingerprint string `json:"fingerprint"`
	ERefs       uint64 `json:"e_refs"`
	EMisses     uint64 `json:"e_misses"`
	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
	Dispatches  uint64 `json:"dispatches"`
}

type stepResult struct {
	State     string  `json:"state"`
	Evictions uint64  `json:"evictions"`
	Result    *result `json:"result"`
	Failure   string  `json:"failure"`
}

// atsimd is one running server process.
type atsimd struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the stdout reader has finished
}

// startAtsimd starts atsimd on a fresh data directory and returns once
// /readyz answers 200, with the time that took.
func startAtsimd(o opts, client *http.Client, dataDir string) (*atsimd, time.Duration, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(filepath.Join(o.root, buildDir, "atsimd"), "-addr", "127.0.0.1:0", "-data", dataDir,
		"-workers", strconv.Itoa(workers()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	a := &atsimd{cmd: cmd, done: make(chan struct{})}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "atsimd: listening on ")
	if err != nil || !ok {
		a.kill()
		return nil, 0, fmt.Errorf("atsimd did not announce its address (%q, %v)", line, err)
	}
	go func() {
		defer close(a.done)
		io.Copy(io.Discard, br)
	}()
	a.base = "http://" + addr
	for {
		resp, err := client.Get(a.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return a, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			a.stop()
			return nil, 0, fmt.Errorf("atsimd not ready after 30s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// rssSampler records the peak resident set of a process over each
// second, resetting the peak counter after every reading.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
	err        error
}

func startRSSSampler(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if s.err = resetPeakRSS(pid); s.err != nil {
			return
		}
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				mb, err := peakRSSMB(pid)
				if err == nil {
					err = resetPeakRSS(pid)
				}
				if err != nil {
					s.err = err
					return
				}
				s.samples = append(s.samples, mb)
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its per-second peaks.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	if s.err == nil && len(s.samples) == 0 {
		s.err = errors.New("no peak-RSS sample was taken")
	}
	return s.samples, s.err
}

// stop drains atsimd with SIGTERM and waits for it to exit.
func (a *atsimd) stop() error {
	if err := a.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- a.cmd.Wait() }()
	select {
	case err := <-exited:
		<-a.done
		return err
	case <-time.After(30 * time.Second):
		a.cmd.Process.Kill()
		<-exited
		<-a.done
		return errors.New("atsimd did not drain within 30s")
	}
}

func (a *atsimd) kill() {
	a.cmd.Process.Kill()
	a.cmd.Wait()
}

// opStats are the accumulated client-side measurements of a phase.
type opStats struct {
	mu                sync.Mutex
	attempted, failed int64
	retries           int64
	stepMs, obsMs     []float64
	obsBytes          int64
	resumeMs          [][]float64 // by evict point
	done              int64
	failedSessions    int64
	instrs            float64
	refCPU            []float64      // CPU seconds of each host reference run
	results           map[int]result // by plan index
	evictedNoResume   int64
	obsGaps           int64
	obsBreaks         int64
}

// client drives atsimd; one per closed-loop client goroutine.
type client struct {
	http *http.Client
	base string
	st   *opStats
	tr   *tracer // nil in untraced phases
	lane string  // trace lane of this client's spans
	// gate is held for reading by every operation; the host reference
	// holds it for writing, so that it runs while no request is in flight.
	gate *sync.RWMutex
}

// do performs one HTTP operation, retrying 429/503/504 and transport
// errors. Every attempt counts as attempted, every failed attempt as
// failed. It returns the body of the successful attempt and the time
// from the first attempt to its end.
func (c *client) do(method, path string, body []byte, want int) ([]byte, time.Duration, error) {
	c.gate.RLock()
	defer c.gate.RUnlock()
	t0 := time.Now()
	var last error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			c.count(func(s *opStats) { s.retries++ })
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		resp, err := c.http.Do(req)
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err == nil && resp.StatusCode == want {
			c.count(func(s *opStats) { s.attempted++ })
			return data, time.Since(t0), nil
		}
		c.count(func(s *opStats) { s.attempted++; s.failed++ })
		wait := 50 * time.Millisecond
		if err != nil {
			last = fmt.Errorf("%s %s: %w", method, path, err)
		} else {
			last = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
			switch resp.StatusCode {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil {
					wait = min(time.Duration(s)*time.Second, time.Second)
				}
			default:
				return nil, 0, last
			}
		}
		time.Sleep(wait)
	}
	return nil, 0, last
}

func (c *client) count(f func(*opStats)) {
	c.st.mu.Lock()
	f(c.st)
	c.st.mu.Unlock()
}

// span records a client-side span when the phase is traced.
func (c *client) span(name, lane string, parent int, start, end time.Time) int {
	if c.tr == nil {
		return 0
	}
	return c.tr.add(name, lane, parent, start, end)
}

// runSession drives one planned session from create to delete: step one
// quantum at a time, read the new /obs events after every step, evict
// at the planned point. It returns an error if the session could not
// be driven to done.
func (c *client) runSession(p sessionPlan) error {
	cfg, err := json.Marshal(p.config)
	if err != nil {
		return err
	}
	s0 := time.Now()
	body, _, err := c.do(http.MethodPost, "/v1/sessions", cfg, http.StatusCreated)
	if err != nil {
		return err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		return fmt.Errorf("create answer %q: %w", body, err)
	}
	id, lane := created.ID, c.lane
	sessSpan := c.span("session", lane, 0, s0, s0) // end fixed below
	var cursor, steps uint64
	resuming := false
	for {
		steps++
		st0 := time.Now()
		body, d, err := c.do(http.MethodPost, "/v1/sessions/"+id+"/step", []byte(`{"quanta":1}`), http.StatusOK)
		if err != nil {
			return err
		}
		var sr stepResult
		if err := json.Unmarshal(body, &sr); err != nil {
			return fmt.Errorf("step answer %q: %w", body, err)
		}
		ms := float64(d.Nanoseconds()) / 1e6
		name := "session.step"
		if resuming {
			name = "session.resume"
		}
		c.span(name, lane, sessSpan, st0, st0.Add(d))
		c.count(func(s *opStats) {
			s.stepMs = append(s.stepMs, ms)
			if resuming {
				s.resumeMs[p.point] = append(s.resumeMs[p.point], ms)
			}
		})
		resuming = false

		if cursor, err = c.readObs(id, cursor, lane, sessSpan); err != nil {
			return err
		}
		switch sr.State {
		case "done":
			if sr.Result == nil {
				return fmt.Errorf("session %s done without a result", id)
			}
			r := *sr.Result
			c.count(func(s *opStats) {
				s.done++
				s.instrs += float64(r.Instrs)
				s.results[p.index] = r
				if p.evicted && sr.Evictions == 0 {
					s.evictedNoResume++
				}
			})
			if _, _, err := c.do(http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent); err != nil {
				return err
			}
			if c.tr != nil {
				c.tr.endAt(sessSpan, time.Now())
			}
			return nil
		case "failed":
			return fmt.Errorf("session %s failed: %s", id, sr.Failure)
		}
		if p.evicted && steps == p.evictStep {
			e0 := time.Now()
			_, d, err := c.do(http.MethodPost, "/v1/sessions/"+id+"/evict", nil, http.StatusOK)
			if err != nil {
				return err
			}
			c.span("session.evict", lane, sessSpan, e0, e0.Add(d))
			resuming = true
		}
	}
}

// readObs reads the session's /obs events after cursor and returns the
// new cursor, checking that the stream continues at cursor+1 (or
// reports a gap explicitly).
func (c *client) readObs(id string, cursor uint64, lane string, parent int) (uint64, error) {
	t0 := time.Now()
	body, d, err := c.do(http.MethodGet, fmt.Sprintf("/v1/sessions/%s/obs?after=%d", id, cursor), nil, http.StatusOK)
	if err != nil {
		return cursor, err
	}
	c.span("obs.read", lane, parent, t0, t0.Add(d))
	first, last := firstLastLine(body)
	next := cursor
	gap := false
	if len(first) > 0 {
		if bytes.Contains(first, []byte(`"kind":"gap"`)) {
			gap = true
		} else if s, ok := seqOf(first); !ok || s != cursor+1 {
			c.count(func(st *opStats) { st.obsBreaks++ })
		}
		if s, ok := seqOf(last); ok {
			next = s
		}
	}
	c.count(func(s *opStats) {
		s.obsMs = append(s.obsMs, float64(d.Nanoseconds())/1e6)
		s.obsBytes += int64(len(body))
		if gap {
			s.obsGaps++
		}
	})
	return next, nil
}

func firstLastLine(b []byte) (first, last []byte) {
	b = bytes.TrimRight(b, "\n")
	if len(b) == 0 {
		return nil, nil
	}
	first = b
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		first = b[:i]
	}
	last = b[bytes.LastIndexByte(b, '\n')+1:]
	return first, last
}

// seqOf extracts the "seq" field of one NDJSON event line.
func seqOf(line []byte) (uint64, bool) {
	i := bytes.Index(line, []byte(`"seq":`))
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(`"seq":`):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.ParseUint(string(rest[:j]), 10, 64)
	return n, err == nil
}

// phase runs the closed loop for seconds: each client takes the next
// planned session until time is up and finishes the one it holds. With
// ref set, the load pauses once every refEvery while the host reference
// runs; the elapsed time returned leaves the pauses out.
func runPhase(o opts, a *atsimd, hc *http.Client, next *atomic.Int64, seconds float64, tr *tracer, ref *hostRef) (*opStats, time.Duration, error) {
	st := &opStats{resumeMs: make([][]float64, len(evictPoints)), results: map[int]result{}}
	var (
		gate   sync.RWMutex
		paused time.Duration
		refErr error
	)
	start := time.Now()
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if ref == nil {
			return
		}
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			gate.Lock()
			p0 := time.Now()
			secs, err := ref.measure()
			paused += time.Since(p0)
			gate.Unlock()
			if err != nil {
				refErr = err
				return
			}
			st.refCPU = append(st.refCPU, secs)
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &client{http: hc, base: a.base, st: st, tr: tr, lane: fmt.Sprintf("client%d", w), gate: &gate}
			for time.Since(start).Seconds() < seconds {
				p := planSession(o.seed, int(next.Add(1)-1))
				if err := c.runSession(p); err != nil {
					checkFailed("session %d: %v", p.index, err)
					c.count(func(s *opStats) { s.failedSessions++ })
				}
				c.count(func(s *opStats) { s.attempted++ })
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(done)
	<-sampled
	st.failed += st.failedSessions
	return st, elapsed - paused, refErr
}

// twinsAgree checks every pair whose members both finished: the evicted
// member's result must equal its never-evicted twin's.
func twinsAgree(results map[int]result) (pairs int, ok bool) {
	ok = true
	for i, r := range results {
		if i%2 != 0 {
			continue
		}
		twin, has := results[i+1]
		if !has {
			continue
		}
		pairs++
		if r != twin {
			checkFailed("pair %d: evicted session result %+v differs from its twin's %+v", i/2, r, twin)
			ok = false
		}
	}
	return pairs, ok
}

func runSessions(o opts) (outcome, error) {
	out := outcome{correct: true, metrics: map[string]float64{}}
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers(), DisableCompression: true,
	}}
	defer hc.CloseIdleConnections()
	runDir := filepath.Join(o.root, buildDir, fmt.Sprintf("sessions-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	// Setup: start a fresh atsimd several times; keep the last one.
	starts := atsimdStarts
	if o.trace {
		starts = 1
	}
	var setups []float64
	var a *atsimd
	for i := 0; i < starts; i++ {
		if a != nil {
			if err := a.stop(); err != nil {
				return out, err
			}
		}
		var d time.Duration
		var err error
		a, d, err = startAtsimd(o, hc, filepath.Join(runDir, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return out, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if a != nil {
			a.kill()
		}
	}()

	var next atomic.Int64
	if !o.trace {
		ref, err := startHostRef()
		if err != nil {
			return out, err
		}
		steal0, total0 := cpuTicks()
		sampler := startRSSSampler(strconv.Itoa(a.cmd.Process.Pid))
		st, elapsed, err := runPhase(o, a, hc, &next, o.seconds, nil, ref)
		if serr := ref.stop(); err == nil && serr != nil {
			err = fmt.Errorf("host reference: %w", serr)
		}
		rss, rerr := sampler.finish()
		if err == nil {
			err = rerr
		}
		if err != nil {
			return out, err
		}
		// host is how much slower than the reference speed the host ran.
		host := median(st.refCPU) / refNominalSecs
		steal1, total1 := cpuTicks()
		steal := stolenShare(steal0, total0, steal1, total1)
		err = a.stop()
		a = nil
		if err != nil {
			return out, fmt.Errorf("stopping atsimd: %w", err)
		}
		if !sessionChecks(st) {
			out.correct = false
		}
		out.attempted, out.failed = st.attempted, st.failed
		secs := elapsed.Seconds()
		m := out.metrics
		m["setup_s"] = median(setups)
		m["peak_rss_mb"] = median(rss)
		m["sim_minstr_per_s"] = st.instrs / secs / 1e6 * host
		m["op_p50_ms"] = quantile(st.stepMs, 0.5) / host
		m["op_tail_ms"] = quantile(st.stepMs, 0.99) / host
		out.extra = append(out.extra,
			fmt.Sprintf("# host ran %.3fx the reference time (reference kernel median %.6g ms CPU, %d runs)",
				host, median(st.refCPU)*1e3, len(st.refCPU)),
			fmt.Sprintf("# wall clock, not normalised: sim_minstr_per_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g",
				st.instrs/secs/1e6, quantile(st.stepMs, 0.5), quantile(st.stepMs, 0.99)))
		out.extra = append(out.extra, sessionSummary(st, secs)...)
		out.extra = append(out.extra, fmt.Sprintf("# %.1f%% of CPU time was stolen by the hypervisor", 100*steal))
		return out, nil
	}

	// Traced: half the time untraced, half traced with /metrics deltas.
	plain, _, err := runPhase(o, a, hc, &next, o.seconds/2, nil, nil)
	if err != nil {
		return out, err
	}
	m0, err := scrape(hc, a.base)
	if err != nil {
		return out, err
	}
	tr := newTracer()
	st, elapsed, err := runPhase(o, a, hc, &next, o.seconds/2, tr, nil)
	if err != nil {
		return out, err
	}
	m1, err := scrape(hc, a.base)
	if err != nil {
		return out, err
	}
	err = a.stop()
	a = nil
	if err != nil {
		return out, fmt.Errorf("stopping atsimd: %w", err)
	}
	for _, s := range []*opStats{plain, st} {
		if !sessionChecks(s) {
			out.correct = false
		}
		out.attempted += s.attempted
		out.failed += s.failed
	}

	m := zeroed(perLayer())
	out.metrics = m
	delta := func(name string) float64 { return m1[name] - m0[name] }
	meanMs := func(h string) float64 {
		n := delta(h + "_count")
		if n == 0 {
			return 0
		}
		return delta(h+"_sum") / n * 1e3
	}
	m["server.step_mean_ms"] = meanMs("atsimd_step_seconds")
	m["server.admission_wait_ms"] = meanMs("atsimd_admission_wait_seconds")
	m["server.snapshot_write_ms"] = meanMs("atsimd_snapshot_write_seconds")
	// Server counts are per finished session, so they do not move with
	// throughput.
	perSession := func(name string) float64 { return delta(name) / float64(max(st.done, 1)) }
	m["server.snapshot_writes"] = perSession("atsimd_snapshot_write_seconds_count")
	m["server.eviction_ms"] = meanMs("atsimd_eviction_seconds")
	m["server.evictions"] = perSession("atsimd_sessions_evicted_total")
	m["server.resumes"] = perSession("atsimd_sessions_resumed_total")
	m["server.boundaries"] = perSession("atsimd_boundaries_total")
	m["server.sessions_per_s"] = float64(st.done) / elapsed.Seconds()
	m["http.step_overhead_ms"] = mean(st.stepMs) - m["server.step_mean_ms"]
	m["resume.at10_ms"] = median(st.resumeMs[0])
	m["resume.at50_ms"] = median(st.resumeMs[2])
	m["resume.at90_ms"] = median(st.resumeMs[4])
	m["obs.read_bytes"] = float64(st.obsBytes) / float64(max(len(st.obsMs), 1))
	m["obs.read_p50_ms"] = quantile(st.obsMs, 0.5)
	m["obs.read_p99_ms"] = quantile(st.obsMs, 0.99)
	u, t := quantile(plain.stepMs, 0.5), quantile(st.stepMs, 0.5)
	m["trace.overhead_frac"] = (t - u) / u

	path := filepath.Join(o.root, buildDir, "traces", fmt.Sprintf("sessions-seed%d.json", o.seed))
	if err := tr.write(path); err != nil {
		return out, err
	}
	out.extra = append(out.extra, sessionSummary(st, elapsed.Seconds())...)
	out.extra = append(out.extra, "# spans written to "+path)
	return out, nil
}

// sessionChecks runs the output checks of one phase.
func sessionChecks(st *opStats) bool {
	pairs, ok := twinsAgree(st.results)
	if pairs == 0 {
		checkFailed("no evicted session finished beside its twin")
		ok = false
	}
	if st.obsBreaks > 0 {
		checkFailed("%d /obs reads did not continue at the cursor", st.obsBreaks)
		ok = false
	}
	if st.failedSessions > 0 {
		ok = false
	}
	return ok
}

func sessionSummary(st *opStats, secs float64) []string {
	resumes := 0
	for _, r := range st.resumeMs {
		resumes += len(r)
	}
	return []string{
		fmt.Sprintf("%-34s %14.6g ms", "step_p50_ms", quantile(st.stepMs, 0.5)),
		fmt.Sprintf("%-34s %14.6g ms", "step_p99_ms", quantile(st.stepMs, 0.99)),
		fmt.Sprintf("%-34s %14.6g 1/s", "sessions_per_s", float64(st.done)/secs),
		fmt.Sprintf("%-34s %14.6g ms", "obs_read_p50_ms", quantile(st.obsMs, 0.5)),
		fmt.Sprintf("%-34s %14.6g ms", "obs_read_p99_ms", quantile(st.obsMs, 0.99)),
		fmt.Sprintf("# %d sessions done, %d steps, %d resumes (%.2f%% of steps), %d retries, %d obs gaps, %d evicted sessions never resumed",
			st.done, len(st.stepMs), resumes, 100*float64(resumes)/float64(max(len(st.stepMs), 1)),
			st.retries, st.obsGaps, st.evictedNoResume),
	}
}

// scrape reads atsimd's /metrics into name → value, summing the
// per-shard samples of a labelled counter under its bare name.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			m[name] += v
		}
	}
	return m, sc.Err()
}

// cpuTicks returns the CPU time since boot that the hypervisor gave to
// other guests (the steal column of /proc/stat) and all CPU time, in
// ticks; over an interval, their differences show how loaded the host
// was. It returns zeros where /proc/stat cannot be read.
func cpuTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stolenShare is the share of CPU time stolen between two cpuTicks
// readings.
func stolenShare(steal0, total0, steal1, total1 float64) float64 {
	if total1 <= total0 {
		return 0
	}
	return (steal1 - steal0) / (total1 - total0)
}
