package core

// DDV state for one processor. Each processor's data distribution vector
// comprises a frequency matrix F, a (pre-programmed, read-only) distance
// matrix D, and a contention vector C assembled at interval end.
//
// Frequency matrix semantics (paper §III-B): at processor p, counter
// F[i][j] tracks — on behalf of processor i — the number of loads and
// stores committed by p that accessed data with home node j since
// processor i last started a new interval. Every committed memory access
// by p with home j logically increments F[k][j] for all k; when processor
// i ends an interval it queries every processor's F[i] row, which is then
// zeroed, starting a fresh count on i's behalf.
//
// The hardware increments n counters per access; this model uses the
// equivalent subtract-snapshot formulation (a single monotone total per
// home plus one snapshot per requesting processor) so that each access is
// O(1). Query results are bit-identical to the naive scheme, which the
// tests verify.

// FrequencyMatrix is the per-processor F matrix in snapshot form.
type FrequencyMatrix struct {
	n      int
	totals []uint64 // totals[j]: accesses by this processor to home j, ever
	snaps  [][]uint64
	// snaps[i][j]: value of totals[j] when processor i last queried.
}

// NewFrequencyMatrix returns the F matrix for one processor in an
// n-processor system.
func NewFrequencyMatrix(n int) *FrequencyMatrix {
	if n <= 0 {
		panic("core: system size must be positive")
	}
	f := &FrequencyMatrix{
		n:      n,
		totals: make([]uint64, n),
		snaps:  make([][]uint64, n),
	}
	for i := range f.snaps {
		f.snaps[i] = make([]uint64, n)
	}
	return f
}

// N returns the system size.
func (f *FrequencyMatrix) N() int { return f.n }

// Access records a committed load or store whose data has home node j.
func (f *FrequencyMatrix) Access(j int) { f.totals[j]++ }

// QueryAndReset returns the frequency vector F_i — accesses by this
// processor, per home node, since processor i's last query — and resets
// the count on i's behalf. The result is written into dst if it has
// capacity n, otherwise a new slice is allocated.
func (f *FrequencyMatrix) QueryAndReset(i int, dst []uint64) []uint64 {
	if cap(dst) < f.n {
		dst = make([]uint64, f.n)
	}
	dst = dst[:f.n]
	snap := f.snaps[i]
	for j := 0; j < f.n; j++ {
		dst[j] = f.totals[j] - snap[j]
		snap[j] = f.totals[j]
	}
	return dst
}

// DistanceMatrix holds the pre-programmed node-to-node distance constants
// D. The paper requires D[i][i] = 1; off-diagonal entries measure the
// distance from node i to node j (here: 1 + hop count, supplied by the
// topology).
type DistanceMatrix struct {
	n int
	d []float64
}

// NewDistanceMatrix builds D from a hop-count function. hops(i,j) must
// return 0 for i==j.
func NewDistanceMatrix(n int, hops func(i, j int) int) *DistanceMatrix {
	if n <= 0 {
		panic("core: system size must be positive")
	}
	m := &DistanceMatrix{n: n, d: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.d[i*n+j] = 1
			} else {
				m.d[i*n+j] = 1 + float64(hops(i, j))
			}
		}
	}
	return m
}

// UniformDistanceMatrix returns a D with every entry 1 (ablation: no
// distance weighting).
func UniformDistanceMatrix(n int) *DistanceMatrix {
	m := &DistanceMatrix{n: n, d: make([]float64, n*n)}
	for i := range m.d {
		m.d[i] = 1
	}
	return m
}

// At returns D[i][j].
func (m *DistanceMatrix) At(i, j int) float64 { return m.d[i*m.n+j] }

// N returns the system size.
func (m *DistanceMatrix) N() int { return m.n }

// DDSOptions selects ablation variants of the DDS computation.
type DDSOptions struct {
	// IgnoreContention replaces the contention vector C with all-ones,
	// removing the system-wide contention term from the product.
	IgnoreContention bool
}

// ComputeDDS evaluates the paper's data distribution scalar for
// processor i:
//
//	DDS = Σ_j F_ij · D_ij · C_j
//
// where freq is processor i's own frequency vector F_i (accesses by i per
// home node over the interval), dist is the distance matrix row for i,
// and contention C_j is the sum over all processors' F_i vectors — the
// system-wide access count to home j during i's interval.
//
// The raw sum grows quadratically with interval length, so for
// threshold comparability across configurations the normalized form
// divides F by its own total and C by its own total, yielding a value in
// [0, max(D)]: an interval-length-independent "average weighted cost" of
// i's accesses, where the contention weight C_j/ΣC is the share of
// system-wide traffic competing for the homes i uses. Both raw and
// normalized values are returned.
func ComputeDDS(i int, freq []uint64, contention []uint64, dist *DistanceMatrix, opt DDSOptions) (raw, normalized float64) {
	n := dist.N()
	if len(freq) != n || len(contention) != n {
		panic("core: ComputeDDS dimension mismatch")
	}
	var fTot, cTot float64
	for j := 0; j < n; j++ {
		fTot += float64(freq[j])
		cTot += float64(contention[j])
	}
	for j := 0; j < n; j++ {
		c := float64(contention[j])
		if opt.IgnoreContention {
			c = 1
		}
		// float64() rounds the product, so no architecture fuses it (DESIGN.md §9).
		raw += float64(float64(freq[j]) * dist.At(i, j) * c)
	}
	if fTot == 0 {
		return raw, 0
	}
	for j := 0; j < n; j++ {
		cw := 1.0
		if !opt.IgnoreContention && cTot > 0 {
			cw = float64(contention[j]) / cTot
		}
		normalized += float64((float64(freq[j]) / fTot) * dist.At(i, j) * cw)
	}
	return raw, normalized
}

// SumContention accumulates the n frequency vectors handed out by all
// processors (including the requester's own) into the contention vector
// C. dst is reused if it has sufficient capacity.
func SumContention(vectors [][]uint64, dst []uint64) []uint64 {
	if len(vectors) == 0 {
		return dst[:0]
	}
	n := len(vectors[0])
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for j := range dst {
		dst[j] = 0
	}
	for _, v := range vectors {
		if len(v) != n {
			panic("core: SumContention dimension mismatch")
		}
		for j, x := range v {
			dst[j] += x
		}
	}
	return dst
}
