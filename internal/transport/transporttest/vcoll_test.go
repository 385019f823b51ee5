package transporttest

import (
	"testing"

	"exacoll/internal/transport/mem"
)

// TestVCollMem runs the skewed-size matrix with mem as both candidate
// and reference: a self-check that every (algorithm, distribution, unit,
// datatype) combination the harness generates is well-formed and
// deterministic on the reference substrate itself.
func TestVCollMem(t *testing.T) {
	RunVColl(t, func(t *testing.T, p int) World {
		return memWorld{mem.NewWorld(p)}
	})
}

// TestTableIMem runs the Table I matrix with mem as the candidate too. For
// the Table I algorithms that is a self-check of the harness; for the
// reduce-scatter family, whose reference is an independent in-process fold
// (halvingReference), it is the conformance test of the algorithms
// themselves on the reference substrate.
func TestTableIMem(t *testing.T) {
	RunTableI(t, func(t *testing.T, p int) World {
		return memWorld{mem.NewWorld(p)}
	})
}

// TestInPlaceMem holds the mem transport to the one delivery rule.
func TestInPlaceMem(t *testing.T) {
	w := mem.NewWorld(2)
	defer w.Close()
	CheckInPlace(t, memWorld{w})
}
