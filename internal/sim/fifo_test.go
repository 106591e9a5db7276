package sim

import (
	"bytes"
	"slices"
	"testing"
)

// fifoCapBound is the largest array a FIFO whose live length never
// exceeded peak may hold: twice the peak, plus the slack of Go's
// allocation size classes, which round a grown array up by at most a
// quarter at these sizes.
func fifoCapBound(peak int) int { return 2*peak + 2*peak/4 }

// FuzzFIFO runs a random Push/Pop/Remove/Clear sequence against a
// plain-slice reference. Each input byte is one operation: Clear when
// its low four bits are 15; else, when the queue is not empty, Remove
// of the entry its high four bits index (modulo the length) when its
// low four bits are 13, and Pop when its low bit is set; else Push.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 1})
	// Eight deep, then removals at the back, the middle and the front
	// between pushes and pops, as out-of-order drains do.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x7d, 0x3d, 0, 0x0d, 1, 0x2d, 0, 0x1d, 0x5d, 1, 0x0d, 0x0d, 0x0d, 0})
	// A queue that never empties: four deep, then push-pop pairs.
	f.Add(append([]byte{0, 0, 0, 0}, bytes.Repeat([]byte{0, 1}, 200)...))
	// Grow to 300, drain, refill to 100, clear, then grow by one per
	// push-pop-push triple.
	f.Add(slices.Concat(bytes.Repeat([]byte{0}, 300), bytes.Repeat([]byte{1}, 300),
		bytes.Repeat([]byte{2}, 100), []byte{15}, bytes.Repeat([]byte{4, 3, 6}, 100)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q FIFO[*int]
		var ref []*int
		peak := 0
		for i, op := range ops {
			switch {
			case op&15 == 15:
				q.Clear()
				ref = ref[:0]
			case op&15 == 13 && len(ref) > 0:
				j := int(op>>4) % len(ref)
				q.Remove(j)
				ref = slices.Delete(ref, j, j+1)
			case op&1 == 1 && len(ref) > 0:
				got, want := q.Pop(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("op %d: Pop = %d, want %d", i, *got, *want)
				}
			default:
				x := new(int)
				*x = i
				q.Push(x)
				ref = append(ref, x)
			}
			peak = max(peak, len(ref))
			if q.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i, q.Len(), len(ref))
			}
			if !slices.Equal(q.Live(), ref) {
				t.Fatalf("op %d: Live differs from the reference", i)
			}
			if len(ref) > 0 && q.Front() != ref[0] {
				t.Fatalf("op %d: Front = %d, want %d", i, *q.Front(), *ref[0])
			}
			all := q.buf[:cap(q.buf)]
			for j, x := range all {
				if (j < q.head || j >= len(q.buf)) && x != nil {
					t.Fatalf("op %d: vacated slot %d still holds %d", i, j, *x)
				}
			}
			if c := cap(q.buf); c > fifoCapBound(peak) {
				t.Fatalf("op %d: capacity %d exceeds %d for peak live length %d", i, c, fifoCapBound(peak), peak)
			}
		}
	})
}

// FreeList hands records back most recently Put first and drops its
// reference to each record it returns.
func TestFreeListLIFO(t *testing.T) {
	var f FreeList[*int]
	if _, ok := f.Get(); ok {
		t.Fatal("Get on an empty pool reported a record")
	}
	a, b, c := new(int), new(int), new(int)
	f.Put(a)
	f.Put(b)
	f.Put(c)
	for _, want := range []*int{c, b, a} {
		if got, ok := f.Get(); !ok || got != want {
			t.Fatalf("Get = %p, %v; want %p, true", got, ok, want)
		}
	}
	if _, ok := f.Get(); ok {
		t.Fatal("Get on a drained pool reported a record")
	}
	for i, x := range f.items[:cap(f.items)] {
		if x != nil {
			t.Errorf("slot %d still references a returned record", i)
		}
	}
}
