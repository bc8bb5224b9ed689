package par

import (
	"fmt"
	"testing"
)

// TestEach mirrors the bench drivers' use: index-addressed writes, the
// lowest-index error wins.
func TestEach(t *testing.T) {
	out := make([]int, 100)
	if err := Each(7, len(out), func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	err := Each(5, 50, func(i int) error {
		if i%10 == 3 {
			return fmt.Errorf("e%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "e3" {
		t.Fatalf("err = %v, want e3", err)
	}
}
