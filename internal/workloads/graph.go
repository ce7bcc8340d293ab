package workloads

import "kindle/internal/sim"

// Graph is a directed graph in CSR (compressed sparse row) form, the
// layout both GAP and Graph500 kernels operate on.
type Graph struct {
	N       int      // vertices
	Offsets []uint64 // len N+1, indices into Edges
	Edges   []uint32 // destination vertices
	Weights []uint8  // per-edge weights (SSSP)
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// rmatCut returns the integer form of the test rng.Float64() < p on a draw
// x = rng.Uint64()>>11: Float64 is x/2^53, and for p in [0.5, 1) p·2^53 is
// an exact integer, so the test holds exactly when x < rmatCut(p).
func rmatCut(p float64) uint64 { return uint64(p * (1 << 53)) }

// R-MAT quadrant probabilities (a,b,c,d) = (0.57,0.19,0.19,0.05) as
// cumulative cuts on the 53-bit draw.
var rmatCutA, rmatCutB, rmatCutC = rmatCut(0.57), rmatCut(0.76), rmatCut(0.95)

// GenRMAT builds a scale-free directed graph with n vertices and about
// degree*n edges using an R-MAT style recursive partitioning (the Graph500
// generator family; GAP's Kronecker inputs have the same skew). The result
// is deterministic for a given seed.
func GenRMAT(n, degree int, seed uint64) *Graph {
	rng := sim.NewRNG(seed)
	m := n * degree
	srcs := make([]uint32, m)
	dsts := make([]uint32, m)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for e := 0; e < m; e++ {
		var u, v uint64
		for b := 0; b < bits; b++ {
			// The number of cuts the draw reaches picks the quadrant
			// without a data-dependent branch: 0 = a (0,0), 1 = b (0,1),
			// 2 = c (1,0), 3 = d (1,1). Each (x-cut)>>63 is 1 below the
			// cut, since both are under 2^53.
			x := rng.Uint64() >> 11
			q := 3 - (x-rmatCutA)>>63 - (x-rmatCutB)>>63 - (x-rmatCutC)>>63
			u |= q >> 1 << b
			v |= (q & 1) << b
		}
		if u >= uint64(n) {
			u %= uint64(n)
		}
		if v >= uint64(n) {
			v %= uint64(n)
		}
		srcs[e], dsts[e] = uint32(u), uint32(v)
	}
	// Counting sort into CSR.
	g := &Graph{N: n, Offsets: make([]uint64, n+1)}
	for _, u := range srcs {
		g.Offsets[u+1]++
	}
	for i := 0; i < n; i++ {
		g.Offsets[i+1] += g.Offsets[i]
	}
	g.Edges = make([]uint32, m)
	g.Weights = make([]uint8, m)
	cursor := make([]uint64, n)
	copy(cursor, g.Offsets[:n])
	for e := 0; e < m; e++ {
		u := srcs[e]
		idx := cursor[u]
		cursor[u]++
		g.Edges[idx] = dsts[e]
		g.Weights[idx] = uint8(1 + rng.Intn(255))
	}
	return g
}

// permutation returns a deterministic Fisher-Yates shuffle of [0, n).
func permutation(n int, seed uint64) []int {
	rng := sim.NewRNG(seed ^ 0xBADC0FFEE)
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// GenUniform builds a uniform random directed graph (used by tests for a
// non-skewed counterpoint).
func GenUniform(n, degree int, seed uint64) *Graph {
	rng := sim.NewRNG(seed)
	g := &Graph{N: n, Offsets: make([]uint64, n+1)}
	m := n * degree
	g.Edges = make([]uint32, m)
	g.Weights = make([]uint8, m)
	for v := 0; v <= n; v++ {
		g.Offsets[v] = uint64(v * degree)
	}
	for e := 0; e < m; e++ {
		g.Edges[e] = uint32(rng.Intn(n))
		g.Weights[e] = uint8(1 + rng.Intn(255))
	}
	return g
}
