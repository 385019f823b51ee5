package main

// Input generation. Everything a workload feeds the library is a pure
// function of the seed, but the seed only ever decides *placement* — which
// rank is root, which rank holds the large block, in what order variants
// come up — never how much work a step does. Runs with different seeds
// therefore measure the same amount of work, which is what lets the driver
// compare medians taken at different seeds.

// rng is splitmix64: tiny, and its sequence can never change under us the
// way a library generator's may between Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a permutation of [0, n) (Fisher–Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// raggedWeights is the fixed multiset ragged count vectors are cut from:
// two empty blocks and a 13:1 spread between the largest and the smallest
// non-empty one. Only its assignment to ranks is drawn from the seed.
var raggedWeights = []int{0, 0, 1, 2, 3, 5, 8, 13}

// splitCounts cuts total elements into len(weights) blocks proportional to
// weights; the rounding remainder goes to the heaviest block so the blocks
// sum to total exactly.
func splitCounts(total int, weights []int) []int {
	sum, heavy := 0, 0
	for i, w := range weights {
		sum += w
		if w > weights[heavy] {
			heavy = i
		}
	}
	out := make([]int, len(weights))
	used := 0
	for i, w := range weights {
		out[i] = total * w / sum
		used += out[i]
	}
	out[heavy] += total - used
	return out
}

// weightsFor returns the p-entry weight vector of one count distribution.
func weightsFor(kind string, p int, r *rng) []int {
	w := make([]int, p)
	switch kind {
	case "uniform":
		for i := range w {
			w[i] = 1
		}
	case "ragged":
		order := r.perm(p)
		for i := range w {
			w[order[i]] = raggedWeights[i%len(raggedWeights)]
		}
	case "onehot":
		w[r.intn(p)] = 1
	default:
		panic("benchmark: unknown count distribution " + kind)
	}
	return w
}

// rotate returns v cyclically shifted so that out[i] = v[(i+by) mod n] —
// the "cycled" distribution: the same blocks, owned by different ranks.
func rotate(v []int, by int) []int {
	n := len(v)
	out := make([]int, n)
	for i := range out {
		out[i] = v[(i+by)%n]
	}
	return out
}

// rotateMatrix applies the same rank relabelling to a p×p row-major
// matrix: out[i][j] = m[(i+by) mod p][(j+by) mod p].
func rotateMatrix(m []int, p, by int) []int {
	out := make([]int, p*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			out[i*p+j] = m[((i+by)%p)*p+(j+by)%p]
		}
	}
	return out
}

// vectorPlan holds the seed-drawn count vectors of the vector workload, in
// elements, one set per variant. Variant v is variant 0 with every rank
// relabelled by +v, so all variants move the same multiset of blocks.
type vectorPlan struct {
	allgatherv     [][]int // [variant][p]
	alltoallv      [][]int // [variant][p*p], row i = what rank i sends
	reduceScatterv [][]int // [variant][p]
}

// genVectorPlan draws the count vectors. Per step the three collectives
// see, between them, all four distributions: allgatherv is ragged with
// empty blocks, reduce-scatterv is one-hot, alltoallv rows alternate
// uniform / ragged / one-hot, and successive steps cycle the ranks.
func genVectorPlan(seed uint64, p, variants, agTotal, a2aRowTotal, rsTotal int) vectorPlan {
	r := newRNG(seed)
	ag0 := splitCounts(agTotal, weightsFor("ragged", p, r))
	rs0 := splitCounts(rsTotal, weightsFor("onehot", p, r))
	kinds := []string{"uniform", "ragged", "onehot"}
	first := r.intn(len(kinds))
	m0 := make([]int, p*p)
	for i := 0; i < p; i++ {
		copy(m0[i*p:], splitCounts(a2aRowTotal, weightsFor(kinds[(first+i)%len(kinds)], p, r)))
	}
	var vp vectorPlan
	for v := 0; v < variants; v++ {
		vp.allgatherv = append(vp.allgatherv, rotate(ag0, v))
		vp.reduceScatterv = append(vp.reduceScatterv, rotate(rs0, v))
		vp.alltoallv = append(vp.alltoallv, rotateMatrix(m0, p, v))
	}
	return vp
}

// genRoots returns the broadcast root of each variant: a seed-drawn order
// in which every rank is root equally often.
func genRoots(seed uint64, p, variants int) []int {
	order := newRNG(seed ^ 0x726f6f74).perm(p)
	roots := make([]int, variants)
	for v := range roots {
		roots[v] = order[v%p]
	}
	return roots
}

// payloadSalt offsets the integer payload pattern so different seeds move
// different bytes.
func payloadSalt(seed uint64) int { return int(newRNG(seed^0x73616c74).next() % 97) }
