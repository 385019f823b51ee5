package trace

import (
	"testing"

	"exacoll/internal/transport/transporttest"
)

func TestWrapIsATransparentWrapper(t *testing.T) {
	transporttest.CheckWrapper(t, NewSink().Wrap)
}
