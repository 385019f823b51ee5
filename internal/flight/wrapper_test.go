package flight_test

import (
	"testing"

	"exacoll/internal/comm"
	"exacoll/internal/flight"
	"exacoll/internal/transport/transporttest"
)

func TestWrapIsATransparentWrapper(t *testing.T) {
	transporttest.CheckWrapper(t, func(c comm.Comm) comm.Comm {
		return flight.NewRecorder(flight.Options{}).Wrap(c)
	})
}
