package runner

import (
	"slices"
	"sort"
	"sync"
)

// queue is a run's one dispatch queue. It grows while its producers run:
// the Execute seam hands cells back into it, and each batch group in
// flight adds its diverged lanes when it returns. Workers pop from it
// until it is empty with no producer left, or until the run is stopped.
type queue struct {
	mu    sync.Mutex
	ready sync.Cond // signalled on every push, producer exit and stop
	tasks []task
	// lpt keeps the tasks in descending cost order (ties in push order);
	// without it the queue is FIFO.
	lpt       bool
	producers int // live producers: the Execute seam, batch groups in flight
	stopped   bool
}

// newQueue builds a queue holding tasks, sorted heaviest first (ties in
// input order) when lpt is set.
func newQueue(tasks []task, lpt bool) *queue {
	if lpt {
		sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].cost > tasks[b].cost })
	}
	q := &queue{tasks: tasks, lpt: lpt}
	q.ready.L = &q.mu
	return q
}

// push adds tasks, each behind every queued task at least as heavy in an
// lpt queue and at the back otherwise.
func (q *queue) push(ts ...task) {
	if len(ts) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, t := range ts {
		at := len(q.tasks)
		if q.lpt {
			at = sort.Search(len(q.tasks), func(k int) bool { return q.tasks[k].cost < t.cost })
		}
		q.tasks = slices.Insert(q.tasks, at, t)
	}
	q.ready.Broadcast()
}

// pop takes the next task, waiting while the queue is empty and a
// producer may still add to it. It reports false once the queue is
// drained for good or the run is stopped. Popping a batch group registers
// it as a producer; the worker calls produced when the group returns.
func (q *queue) pop() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) == 0 && q.producers > 0 && !q.stopped {
		q.ready.Wait()
	}
	if q.stopped || len(q.tasks) == 0 {
		return task{}, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	if t.batch {
		q.producers++
	}
	return t, true
}

// produce registers a producer outside the queue (the Execute seam).
func (q *queue) produce() {
	q.mu.Lock()
	q.producers++
	q.mu.Unlock()
}

// produced retires a producer once it has pushed everything it will.
func (q *queue) produced() {
	q.mu.Lock()
	q.producers--
	q.ready.Broadcast()
	q.mu.Unlock()
}

// stop ends the dispatch: every waiting and later pop reports false.
func (q *queue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.ready.Broadcast()
	q.mu.Unlock()
}
