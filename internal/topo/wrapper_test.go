package topo

import (
	"testing"

	"exacoll/internal/comm"
	"exacoll/internal/metrics"
	"exacoll/internal/transport/transporttest"
)

func TestLevelCommIsATransparentWrapper(t *testing.T) {
	reg := metrics.NewRegistry()
	transporttest.CheckWrapper(t, func(c comm.Comm) comm.Comm {
		return &levelComm{Forward: comm.NewForward(c), reg: reg, rank: c.Rank(), intra: true}
	})
}
