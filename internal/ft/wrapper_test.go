package ft

import (
	"testing"

	"exacoll/internal/comm"
	"exacoll/internal/transport/transporttest"
)

func TestEpochCommIsATransparentWrapper(t *testing.T) {
	transporttest.CheckWrapper(t, func(c comm.Comm) comm.Comm { return NewEpochComm(c, 3) })
}
