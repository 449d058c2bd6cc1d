package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Host-speed reference. The shared host this benchmark runs on changes
// speed in phases of seconds to minutes: while a neighbour contends for
// the shared caches and memory, the same simulation round takes up to
// 1.5-2x the CPU time, and a 30-second run can fall wholly inside a slow
// phase. CPU time does not hide this (the process really does execute
// more slowly), and no estimator over one run's rounds can undo a phase
// longer than the run. So the workloads also run a fixed reference
// kernel that slows down the same way — before every round of the
// simulation workloads, and once a second while the sessions clients
// pause — and report their times at the reference host speed:
//
//	reported = measured × refNominalSecs / median(reference CPU time)
//
// The kernel does what dominates a simulation round's host time — a
// set-associative cache sweep like the one behind Platform.Apply, and
// Go heap churn (a fig9-grid round allocates about 30 MB) — and is
// written here, so that no change to the repository moves it. On a
// quiet host the factor is about 1. The simulation workloads scale
// setup_s by the same factor (sampled with the rounds, it follows it);
// sessions do not (atsimd starts are timed before the load, and scaling
// widened their spread). The unscaled times and the factor are printed
// beside the metrics. Sampled only before and after the sessions load,
// the reference did not follow the load's swings; sampled during it,
// with the clients paused, it does.
const (
	// refNominalSecs is the reference kernel's CPU time on a quiet host
	// (Intel Xeon KVM guest, 2 vCPUs), which defines the reference speed.
	refNominalSecs = 0.030
	refSets        = 1 << 17 // 4-way sets: 4 MB of tags
	refAccesses    = 2_000_000
	refChains      = 6_400 // linked lists of refChainLen heap nodes
	refChainLen    = 64
)

// refKernel simulates a 4-way LRU cache over a stream of sequential
// runs and random jumps, the shape of the simulator's data sweep.
func refKernel(tags []uint64) {
	x, addr := uint64(7), uint64(0)
	for i := 0; i < refAccesses; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>62 == 0 {
			addr = (x >> 20) & (1<<32 - 1)
		} else {
			addr += 64
		}
		line := addr >> 6
		i := (line & (refSets - 1)) * 4
		set := tags[i : i+4 : i+4]
		switch tag := line + 1; tag {
		case set[0]:
		case set[1]:
			set[0], set[1] = set[1], set[0]
		case set[2]:
			set[0], set[1], set[2] = set[2], set[0], set[1]
		case set[3]:
			set[0], set[1], set[2], set[3] = set[3], set[0], set[1], set[2]
		default:
			set[0], set[1], set[2], set[3] = tag, set[0], set[1], set[2]
		}
	}
}

// refNode is one heap node of the churn kernel.
type refNode struct {
	next *refNode
	v    [6]uint64
}

// refChurn allocates refChains linked lists and keeps them live until
// the next call replaces them, so that the collector marks and frees
// them as it does a round's garbage.
func refChurn(heads []*refNode) {
	for i := range heads {
		var h *refNode
		for j := 0; j < refChainLen; j++ {
			h = &refNode{next: h}
			h.v[0] = uint64(j)
		}
		heads[i] = h
	}
}

// hostRefChild is the child side of hostRef: for each line on standard
// input it runs the kernel once and answers with the CPU seconds it
// took; it exits at end of input.
func hostRefChild() {
	tags := make([]uint64, refSets*4)
	heads := make([]*refNode, refChains)
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		c0 := cpuSeconds()
		refKernel(tags)
		refChurn(heads)
		fmt.Printf("%.9f\n", cpuSeconds()-c0)
	}
}

// hostRef runs the reference kernel in a child copy of this program,
// so that its memory does not count in this process's peak RSS.
type hostRef struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startHostRef() (*hostRef, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-host-ref")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &hostRef{cmd, in, bufio.NewReader(out)}, nil
}

// measure runs the kernel once and returns its CPU seconds.
func (h *hostRef) measure() (float64, error) {
	if _, err := io.WriteString(h.in, "run\n"); err != nil {
		return 0, fmt.Errorf("host reference: %w", err)
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("host reference: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("host reference said %q", line)
	}
	return v, nil
}

// stop ends the child and waits for it.
func (h *hostRef) stop() error {
	h.in.Close()
	return h.cmd.Wait()
}
