package faulty_test

import (
	"testing"

	"exacoll/internal/comm"
	"exacoll/internal/transport/faulty"
	"exacoll/internal/transport/transporttest"
)

// The chaos wrapper composes with the fault-tolerance layer only if the
// deadline, detector and purge of the transport beneath stay effective.
func TestFaultyIsATransparentWrapper(t *testing.T) {
	transporttest.CheckWrapper(t, func(c comm.Comm) comm.Comm {
		return faulty.New(c, faulty.Options{Seed: 3})
	})
}
