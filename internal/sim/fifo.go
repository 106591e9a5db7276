package sim

// FIFO is the in-order queue every simulated hardware queue is built
// on: the store queue, the persist queue, each strand buffer and the PM
// controller's write, ack and read paths. The zero value is an empty
// queue.
//
// The live entries are buf[head:], oldest first. Pop advances head and
// zeroes the vacated slot, so popped records are not retained; Remove
// takes an entry out of the middle the same way. Push
// into a full array first slides the live entries to the front when
// any slot has been vacated, so a queue that never empties reuses its
// array: the array grows only when every slot is live, which keeps its
// capacity within about twice the queue's peak live depth.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the number of live entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Live returns the live entries, oldest first. The slice aliases the
// queue and is valid until the next Push, Pop or Clear.
func (q *FIFO[T]) Live() []T { return q.buf[q.head:] }

// Front returns the oldest entry. The queue must not be empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Push appends x behind every live entry.
func (q *FIFO[T]) Push(x T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x)
}

// Pop removes and returns the oldest entry. The queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return x
}

// Remove deletes the live entry at index i, oldest first, keeping the
// others in order. The entries in front of it slide back one slot, so
// a removal near the front moves few entries and Remove(0) is Pop.
func (q *FIFO[T]) Remove(i int) {
	live := q.Live()
	copy(live[1:i+1], live[:i])
	q.Pop()
}

// Clear drops every live entry, keeping the array.
func (q *FIFO[T]) Clear() {
	clear(q.Live())
	q.buf, q.head = q.buf[:0], 0
}

// FreeList is a LIFO pool of recycled records. The zero value is an
// empty pool.
type FreeList[T any] struct{ items []T }

// Get returns the most recently Put record, or false when the pool is
// empty; the caller then builds a new record.
func (f *FreeList[T]) Get() (T, bool) {
	var zero T
	n := len(f.items)
	if n == 0 {
		return zero, false
	}
	x := f.items[n-1]
	f.items[n-1] = zero
	f.items = f.items[:n-1]
	return x, true
}

// Put returns x to the pool.
func (f *FreeList[T]) Put(x T) { f.items = append(f.items, x) }
