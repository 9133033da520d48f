package cluster

// window is a FIFO addressed by offset from its front — the storage of
// both session windows, where offset = sequence − base. popFront zeroes
// what it drops (a payload must not stay reachable past its ack) and
// compacts once the dead prefix is as long as the live part, so a steady
// stream reuses one backing array at amortized O(1) a message.
type window[T any] struct {
	buf  []T
	head int
}

func (w *window[T]) len() int    { return len(w.buf) - w.head }
func (w *window[T]) at(i int) *T { return &w.buf[w.head+i] }
func (w *window[T]) push(v T)    { w.buf = append(w.buf, v) }

func (w *window[T]) popFront(n int) {
	clear(w.buf[w.head : w.head+n])
	w.head += n
	if live := len(w.buf) - w.head; w.head >= live {
		copy(w.buf, w.buf[w.head:])
		clear(w.buf[w.head:]) // the moved-from copies; head >= live, so no overlap
		w.buf, w.head = w.buf[:live], 0
	}
}
