package campaign

import (
	"reflect"
	"testing"
)

// TestPoolOneWorkerRunsItemOrder: with one worker the dispatch rule
// takes the items in order, whatever their groups, and Next hands the
// outcomes back in the same order.
func TestPoolOneWorkerRunsItemOrder(t *testing.T) {
	groups := []int{0, 0, 1, 2, 2, 2, 3}
	var order []int // appended by the pool's only worker
	p := NewPool(groups, 1, func(i int) (int, error) {
		order = append(order, i)
		return i * i, nil
	})
	defer p.Stop()
	for i := range groups {
		if v, err := p.Next(); v != i*i || err != nil {
			t.Fatalf("item %d: got (%d, %v), want (%d, nil)", i, v, err, i*i)
		}
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(order, want) {
		t.Errorf("items ran in order %v, want %v", order, want)
	}
}
