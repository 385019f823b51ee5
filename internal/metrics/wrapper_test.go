package metrics_test

import (
	"testing"

	"exacoll/internal/metrics"
	"exacoll/internal/transport/transporttest"
)

func TestInstrumentIsATransparentWrapper(t *testing.T) {
	transporttest.CheckWrapper(t, metrics.NewRegistry().Instrument)
}
