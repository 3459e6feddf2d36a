package dispatch

// Queue is the ready queue: a growable ring buffer of task handles (task
// indices in the simulator, task IDs in the live engine) with O(1) push at
// either end: retries and eviction blocks jump the queue without a copy,
// and Pool.Scan compacts the queue in place instead of rebuilding a
// `remaining` slice per pass, so the steady-state hot path allocates
// nothing.
//
// The zero value is an empty queue ready for use.
type Queue struct {
	buf  []int // ring storage; len(buf) is a power of two (or zero)
	head int   // index of element 0 within buf
	n    int   // number of live elements
}

// Len returns the number of queued handles.
func (q *Queue) Len() int { return q.n }

// At returns the i-th queued handle (0 = front). i must be in [0, Len()).
func (q *Queue) At(i int) int { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Set overwrites the i-th queued handle. i must be in [0, Len()).
func (q *Queue) Set(i, v int) { q.buf[(q.head+i)&(len(q.buf)-1)] = v }

// PushBack appends v to the back of the queue.
func (q *Queue) PushBack(v int) {
	q.grow(1)
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront prepends v to the front of the queue.
func (q *Queue) PushFront(v int) {
	q.grow(1)
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// PushFrontAll prepends vs as a block: after the call the queue reads
// vs[0], vs[1], ..., then the previous contents. This is the multi-victim
// eviction requeue — the whole block jumps the queue while its internal
// (ascending task ID) order is preserved.
func (q *Queue) PushFrontAll(vs []int) {
	q.grow(len(vs))
	for i := len(vs) - 1; i >= 0; i-- {
		q.head = (q.head - 1) & (len(q.buf) - 1)
		q.buf[q.head] = vs[i]
		q.n++
	}
}

// PopFront removes and returns the front handle. The queue must not be
// empty.
func (q *Queue) PopFront() int {
	if q.n == 0 {
		panic("dispatch: PopFront on empty Queue")
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Truncate shrinks the queue to its first n elements. n must be in
// [0, Len()]; growing through Truncate is not allowed.
func (q *Queue) Truncate(n int) {
	if n < 0 || n > q.n {
		panic("dispatch: Truncate out of range")
	}
	q.n = n
}

// closeGap removes the entries [kept, scanned) a scan vacated, keeping the
// order of the rest, by moving whichever side of the gap is shorter: after
// an early stop the kept prefix is usually far shorter than the unscanned
// tail, so shifting it right costs O(prefix) instead of O(queue).
func (q *Queue) closeGap(kept, scanned int) {
	gap := scanned - kept
	if gap == 0 {
		return
	}
	if kept < q.n-scanned {
		for i := kept - 1; i >= 0; i-- {
			q.Set(i+gap, q.At(i))
		}
		q.head = (q.head + gap) & (len(q.buf) - 1)
	} else {
		for i := scanned; i < q.n; i++ {
			q.Set(i-gap, q.At(i))
		}
	}
	q.n -= gap
}

// grow ensures capacity for k more elements, doubling the ring (and
// re-linearizing it) as needed.
func (q *Queue) grow(k int) {
	need := q.n + k
	if need <= len(q.buf) {
		return
	}
	size := len(q.buf)
	if size == 0 {
		size = 16
	}
	for size < need {
		size *= 2
	}
	buf := make([]int, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.At(i)
	}
	q.buf = buf
	q.head = 0
}
