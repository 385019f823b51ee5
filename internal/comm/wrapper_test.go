package comm_test

import (
	"testing"

	"exacoll/internal/comm"
	"exacoll/internal/transport/transporttest"
)

func TestSubCommIsATransparentWrapper(t *testing.T) {
	transporttest.CheckWrapper(t, func(c comm.Comm) comm.Comm {
		all := make([]int, c.Size())
		for i := range all {
			all[i] = i
		}
		sub, err := comm.NewSub(c, all)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	})
}

func TestNamespaceIsATransparentWrapper(t *testing.T) {
	transporttest.CheckWrapper(t, func(c comm.Comm) comm.Comm {
		ns, err := comm.NewNamespace(c, 5)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	})
}
