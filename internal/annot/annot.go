// Package annot implements the shared-state dependency graph of Section
// 2.3: a dynamic directed graph G = (V, E) over runtime thread instances
// with a sharing coefficient q ∈ [0,1] on each edge. An edge (ti, tj)
// with weight q declares that, at this point in time, a fraction q of
// thread ti's state is shared with thread tj; the destination tj is
// *dependent* on the source ti (tj's cached state changes when ti runs).
//
// The graph is built at runtime by at_share-style annotations. Edges are
// hints: incomplete or wrong annotations never affect correctness, only
// scheduling quality. No transitivity is assumed, and edges need not be
// bidirectional (the paper's mergesort annotates child→parent only).
package annot

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/mem"
)

// CheckAnnotation validates an at_share(from, to, q) call at the API
// boundary, before the hint reaches the graph. A NaN, infinite or
// negative coefficient is a programming error in the annotating
// program — the paper's hints are fractions of shared state — as is a
// self-edge (a thread trivially shares all state with itself; the
// model's case 1 already covers it, so an explicit self-annotation
// indicates a thread-ID mix-up at the call site). q above 1 remains a
// clamp, not an error: over-estimating sharing is a legitimately lazy
// hint. The graph's own Share keeps its silent-clamping behaviour for
// internal callers (inference synthesizes edges from noisy evidence);
// the runtime applies this check only to explicit user annotations.
func CheckAnnotation(from, to mem.ThreadID, q float64) error {
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return fmt.Errorf("annot: at_share(%v, %v) with non-finite coefficient %v", from, to, q)
	}
	if q < 0 {
		return fmt.Errorf("annot: at_share(%v, %v) with negative coefficient %v", from, to, q)
	}
	if from == to {
		return fmt.Errorf("annot: at_share self-edge on thread %v (a thread shares all state with itself; annotate the other thread's ID)", from)
	}
	return nil
}

// Edge is one outgoing dependency: a fraction Q of the source thread's
// state is shared with thread To.
type Edge struct {
	To mem.ThreadID
	Q  float64
}

// Graph is the dependency graph. It is not safe for concurrent use; the
// simulation is sequential. The zero value is not usable — call New.
type Graph struct {
	out   map[mem.ThreadID][]Edge         // adjacency, iteration order = insertion order
	in    map[mem.ThreadID][]mem.ThreadID // reverse index for O(in-degree) removal
	edges int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out: make(map[mem.ThreadID][]Edge),
		in:  make(map[mem.ThreadID][]mem.ThreadID),
	}
}

// Share records that a fraction q of thread from's state is shared with
// thread to — the at_share(from, to, q) annotation. A repeated
// annotation updates the coefficient in place; q = 0 removes the edge
// (an unspecified edge and a zero-weight edge are equivalent, as the
// paper notes G can be viewed as a complete graph with zero weights).
// Self-edges are ignored: a thread trivially shares all state with
// itself and the model's case 1 already covers it. q outside [0,1] is
// clamped — annotations are hints and must never fault the program.
func (g *Graph) Share(from, to mem.ThreadID, q float64) {
	if from == to || !from.Valid() || !to.Valid() {
		return
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	edges := g.out[from]
	for i := range edges {
		if edges[i].To == to {
			if q == 0 {
				g.removeEdge(from, i)
			} else {
				edges[i].Q = q
			}
			return
		}
	}
	if q == 0 {
		return
	}
	g.out[from] = append(edges, Edge{To: to, Q: q})
	g.in[to] = append(g.in[to], from)
	g.edges++
}

func (g *Graph) removeEdge(from mem.ThreadID, i int) {
	edges := g.out[from]
	to := edges[i].To
	g.out[from] = append(edges[:i], edges[i+1:]...)
	if len(g.out[from]) == 0 {
		delete(g.out, from)
	}
	ins := g.in[to]
	for j, src := range ins {
		if src == from {
			g.in[to] = append(ins[:j], ins[j+1:]...)
			break
		}
	}
	if len(g.in[to]) == 0 {
		delete(g.in, to)
	}
	g.edges--
}

// Coefficient returns the weight of edge (from, to), or 0 when absent.
func (g *Graph) Coefficient(from, to mem.ThreadID) float64 {
	for _, e := range g.out[from] {
		if e.To == to {
			return e.Q
		}
	}
	return 0
}

// OutEdges returns the outgoing edges of tid — the threads dependent on
// tid, which a context switch by tid must update. The returned slice is
// the graph's own storage; callers must not retain or mutate it. Its
// length is the out-degree d that bounds the per-switch update cost.
func (g *Graph) OutEdges(tid mem.ThreadID) []Edge { return g.out[tid] }

// OutDegree returns the number of threads dependent on tid.
func (g *Graph) OutDegree(tid mem.ThreadID) int { return len(g.out[tid]) }

// Edges returns the total number of edges in the graph.
func (g *Graph) Edges() int { return g.edges }

// RemoveThread deletes tid and every edge incident to it, in time
// proportional to its degree. The runtime calls this when a thread
// exits, after the final footprint update has credited its dependents.
func (g *Graph) RemoveThread(tid mem.ThreadID) {
	// Outgoing edges.
	for _, e := range g.out[tid] {
		ins := g.in[e.To]
		for j, src := range ins {
			if src == tid {
				g.in[e.To] = append(ins[:j], ins[j+1:]...)
				break
			}
		}
		if len(g.in[e.To]) == 0 {
			delete(g.in, e.To)
		}
		g.edges--
	}
	delete(g.out, tid)
	// Incoming edges.
	for _, src := range g.in[tid] {
		edges := g.out[src]
		for i := range edges {
			if edges[i].To == tid {
				g.out[src] = append(edges[:i], edges[i+1:]...)
				g.edges--
				break
			}
		}
		if len(g.out[src]) == 0 {
			delete(g.out, src)
		}
	}
	delete(g.in, tid)
}

// FlatEdge is one (from, to, q) triple of the Export listing.
type FlatEdge struct {
	From, To mem.ThreadID
	Q        float64
}

// Export returns every edge sorted by (From, To) — a canonical listing
// for checkpoints. Note the order deliberately ignores insertion order;
// two identical runs insert edges in the same order, so comparing
// sorted listings of their graphs is exact. Sources are visited in ID
// order and each source's edges, usually inserted in ID order already,
// are sorted only when they are not.
func (g *Graph) Export() []FlatEdge {
	froms := make([]mem.ThreadID, 0, len(g.out))
	for from := range g.out {
		froms = append(froms, from)
	}
	slices.Sort(froms)
	out := make([]FlatEdge, 0, g.edges)
	for _, from := range froms {
		start, sorted := len(out), true
		for _, e := range g.out[from] {
			if len(out) > start && e.To < out[len(out)-1].To {
				sorted = false
			}
			out = append(out, FlatEdge{From: from, To: e.To, Q: e.Q})
		}
		if !sorted {
			slices.SortFunc(out[start:], func(a, b FlatEdge) int { return cmp.Compare(a.To, b.To) })
		}
	}
	return out
}

// Check verifies internal consistency (forward and reverse indices
// agree, coefficients in range, edge count correct); it is used by
// property tests and returns a descriptive error on violation.
func (g *Graph) Check() error {
	count := 0
	for from, edges := range g.out {
		seen := make(map[mem.ThreadID]bool, len(edges))
		for _, e := range edges {
			count++
			if e.Q <= 0 || e.Q > 1 {
				return fmt.Errorf("annot: edge (%v,%v) coefficient %v outside (0,1]", from, e.To, e.Q)
			}
			if seen[e.To] {
				return fmt.Errorf("annot: duplicate edge (%v,%v)", from, e.To)
			}
			seen[e.To] = true
			found := false
			for _, src := range g.in[e.To] {
				if src == from {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("annot: edge (%v,%v) missing from reverse index", from, e.To)
			}
		}
	}
	if count != g.edges {
		return fmt.Errorf("annot: edge count %d, counted %d", g.edges, count)
	}
	for to, srcs := range g.in {
		for _, src := range srcs {
			if g.Coefficient(src, to) == 0 {
				return fmt.Errorf("annot: reverse entry (%v,%v) without forward edge", src, to)
			}
		}
	}
	return nil
}
