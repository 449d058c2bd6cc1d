package annot

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestShareAndCoefficient(t *testing.T) {
	g := New()
	g.Share(1, 2, 0.5)
	if got := g.Coefficient(1, 2); got != 0.5 {
		t.Errorf("Coefficient(1,2) = %v", got)
	}
	if got := g.Coefficient(2, 1); got != 0 {
		t.Error("edges must not be implicitly bidirectional")
	}
	// Update in place.
	g.Share(1, 2, 0.75)
	if got := g.Coefficient(1, 2); got != 0.75 {
		t.Errorf("updated coefficient = %v", got)
	}
	if g.Edges() != 1 {
		t.Errorf("Edges = %d, want 1", g.Edges())
	}
}

func TestZeroCoefficientRemovesEdge(t *testing.T) {
	g := New()
	g.Share(1, 2, 0.5)
	g.Share(1, 2, 0)
	if g.Edges() != 0 || g.Coefficient(1, 2) != 0 {
		t.Error("zero-weight edge not removed")
	}
	// Sharing 0 on a missing edge is a no-op.
	g.Share(3, 4, 0)
	if g.Edges() != 0 {
		t.Error("zero share created an edge")
	}
	if err := g.Check(); err != nil {
		t.Error(err)
	}
}

func TestClamping(t *testing.T) {
	g := New()
	g.Share(1, 2, 1.5)
	if got := g.Coefficient(1, 2); got != 1 {
		t.Errorf("over-one coefficient = %v, want clamp to 1", got)
	}
	g.Share(1, 3, -0.5)
	if g.Coefficient(1, 3) != 0 || g.Edges() != 1 {
		t.Error("negative coefficient should clamp to 0 (no edge)")
	}
}

func TestSelfAndInvalidEdgesIgnored(t *testing.T) {
	g := New()
	g.Share(1, 1, 0.5)
	g.Share(mem.NilThread, 2, 0.5)
	g.Share(2, mem.SchedThread, 0.5)
	if g.Edges() != 0 {
		t.Errorf("invalid edges accepted: %d", g.Edges())
	}
}

func TestOutEdgesAndDegree(t *testing.T) {
	g := New()
	g.Share(1, 2, 0.3)
	g.Share(1, 3, 0.6)
	g.Share(4, 1, 0.9)
	if g.OutDegree(1) != 2 {
		t.Errorf("OutDegree(1) = %d", g.OutDegree(1))
	}
	edges := g.OutEdges(1)
	if len(edges) != 2 || edges[0].To != 2 || edges[1].To != 3 {
		t.Errorf("OutEdges(1) = %v (insertion order expected)", edges)
	}
	if g.OutDegree(2) != 0 {
		t.Error("OutDegree of a sink should be 0")
	}
}

func TestRemoveThread(t *testing.T) {
	g := New()
	// A small mergesort-like pattern: children 2,3 share fully with
	// parent 1; parent shares partially with both.
	g.Share(2, 1, 1.0)
	g.Share(3, 1, 1.0)
	g.Share(1, 2, 0.4)
	g.Share(1, 3, 0.4)
	g.Share(2, 3, 0.2)
	if g.Edges() != 5 {
		t.Fatalf("Edges = %d", g.Edges())
	}
	g.RemoveThread(1)
	if g.Edges() != 1 {
		t.Errorf("after removing hub: %d edges, want 1", g.Edges())
	}
	if g.Coefficient(2, 3) != 0.2 {
		t.Error("unrelated edge lost")
	}
	if g.Coefficient(2, 1) != 0 || g.Coefficient(1, 2) != 0 {
		t.Error("edges of removed thread survive")
	}
	if err := g.Check(); err != nil {
		t.Error(err)
	}
	// Removing an absent thread is harmless.
	g.RemoveThread(99)
	if err := g.Check(); err != nil {
		t.Error(err)
	}
}

// TestRandomOpsKeepInvariants drives the graph with random share/remove
// operations and verifies internal consistency throughout.
func TestRandomOpsKeepInvariants(t *testing.T) {
	f := func(ops []struct {
		From, To uint8
		Q        uint8
		Remove   bool
	}) bool {
		g := New()
		for _, op := range ops {
			from := mem.ThreadID(op.From % 16)
			to := mem.ThreadID(op.To % 16)
			if op.Remove {
				g.RemoveThread(from)
			} else {
				g.Share(from, to, float64(op.Q)/255)
			}
			if err := g.Check(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergesortAnnotationExample(t *testing.T) {
	// The paper's Section 2.3 example: children's state fully contained
	// in the parent's.
	g := New()
	parent, left, right := mem.ThreadID(0), mem.ThreadID(1), mem.ThreadID(2)
	g.Share(left, parent, 1.0)
	g.Share(right, parent, 1.0)
	if g.OutDegree(left) != 1 || g.Coefficient(left, parent) != 1 {
		t.Error("child→parent edge wrong")
	}
	// The parent prefetches nothing for the children: no reverse edges.
	if g.OutDegree(parent) != 0 {
		t.Error("parent should have no out-edges in the example")
	}
}

func TestCheckAnnotation(t *testing.T) {
	cases := []struct {
		from, to mem.ThreadID
		q        float64
		wantErr  string // substring, "" = valid
	}{
		{1, 2, 0.5, ""},
		{1, 2, 0, ""},
		{1, 2, 1.5, ""}, // over-estimate: clamped later, not an error
		{1, 2, math.NaN(), "non-finite"},
		{1, 2, math.Inf(1), "non-finite"},
		{1, 2, math.Inf(-1), "non-finite"},
		{1, 2, -0.25, "negative"},
		{3, 3, 0.5, "self-edge"},
	}
	for _, c := range cases {
		err := CheckAnnotation(c.from, c.to, c.q)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("CheckAnnotation(%v, %v, %v) = %v, want nil", c.from, c.to, c.q, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("CheckAnnotation(%v, %v, %v) = %v, want error containing %q", c.from, c.to, c.q, err, c.wantErr)
		}
	}
}

func TestExportSortedAndComplete(t *testing.T) {
	g := New()
	g.Share(5, 1, 0.5)
	g.Share(2, 9, 0.25)
	g.Share(2, 3, 0.125)
	g.Share(5, 0, 1)
	flat := g.Export()
	want := []FlatEdge{{2, 3, 0.125}, {2, 9, 0.25}, {5, 0, 1}, {5, 1, 0.5}}
	if len(flat) != len(want) {
		t.Fatalf("Export = %v, want %v", flat, want)
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("Export[%d] = %v, want %v", i, flat[i], want[i])
		}
	}
}

// TestExportMatchesSortedEdges: after random operations, Export equals
// the graph's edges collected from OutEdges and sorted by (From, To).
func TestExportMatchesSortedEdges(t *testing.T) {
	f := func(ops []struct {
		From, To uint8
		Q        uint8
		Remove   bool
	}) bool {
		g := New()
		for _, op := range ops {
			from, to := mem.ThreadID(op.From%16), mem.ThreadID(op.To%16)
			if op.Remove {
				g.RemoveThread(from)
			} else {
				g.Share(from, to, float64(op.Q)/255)
			}
		}
		var want []FlatEdge
		for from := mem.ThreadID(0); from < 16; from++ {
			for _, e := range g.OutEdges(from) {
				want = append(want, FlatEdge{From: from, To: e.To, Q: e.Q})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			return want[i].From < want[j].From || want[i].From == want[j].From && want[i].To < want[j].To
		})
		got := g.Export()
		if len(got) != len(want) {
			t.Logf("Export has %d edges, want %d", len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("Export[%d] = %v, want %v", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
