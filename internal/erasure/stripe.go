package erasure

import (
	"runtime"
	"sync"

	"sprout/internal/arena"
	"sprout/internal/gf256"
)

const (
	// stripeAlign keeps stripe boundaries on cache-line multiples so two
	// workers never write the same line of an output chunk.
	stripeAlign = 64

	// parallelThreshold is the chunk size below which striping is not worth
	// the synchronisation cost and coding stays on the calling goroutine.
	parallelThreshold = 128 << 10
)

// codeTasks feeds a lazily started, GOMAXPROCS-sized worker pool shared by
// every Code in the process. Stripe tasks are short and never submit
// nested tasks, so a bounded pool cannot deadlock; if all workers are busy
// the submitting goroutine runs the stripe inline instead of queueing.
var (
	codePoolOnce sync.Once
	codeTasks    chan stripeJob
)

// stripeJob is one byte range of a striped coding operation. It travels to
// the pool by value and its WaitGroup is recycled, so striping a warm
// operation allocates nothing.
type stripeJob struct {
	rows, srcs, outs [][]byte
	lo, hi           int
	done             *sync.WaitGroup
}

func (j stripeJob) run() {
	defer j.done.Done()
	sc := scratchPool.Get().(*stripeScratch)
	defer putScratch(sc)
	applyRows(j.rows, j.srcs, j.outs, j.lo, j.hi, sc)
}

var stripeWaitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

func startCodePool() {
	workers := runtime.GOMAXPROCS(0)
	codeTasks = make(chan stripeJob, workers)
	for i := 0; i < workers; i++ {
		go func() {
			for job := range codeTasks {
				job.run()
			}
		}()
	}
}

// submitStripe hands a stripe to the pool, or runs it inline when every
// worker is busy (keeping the caller productive under saturation).
func submitStripe(job stripeJob) {
	select {
	case codeTasks <- job:
	default:
		job.run()
	}
}

// stripeScratch recycles a stripe's views of its sources and outputs so the
// hot path performs no allocations beyond the output chunks themselves.
type stripeScratch struct {
	views [][]byte
}

// scratchPool is counted so tests can assert every Get is matched by a
// Put on success, error, and panic paths alike.
var scratchPool = arena.NewCountedPool("erasure_stripe_scratch", func() any { return new(stripeScratch) })

// StripeScratchPool exposes the stripe-scratch pool's lease accounting
// for leak checks and metrics.
func StripeScratchPool() *arena.CountedPool { return scratchPool }

// putScratch zeroes the retained views before pooling so a parked scratch
// does not pin the caller's chunk buffers until the next reuse.
func putScratch(sc *stripeScratch) {
	clear(sc.views)
	sc.views = sc.views[:0]
	scratchPool.Put(sc)
}

// codeRows computes outs[r] = rows[r] · srcs for every row, overwriting
// outs, striping the byte range over the worker pool when the chunks are
// large enough. It reports whether the operation ran striped.
func codeRows(rows [][]byte, srcs [][]byte, outs [][]byte) bool {
	size := len(srcs[0])
	if size < parallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		sc := scratchPool.Get().(*stripeScratch)
		defer putScratch(sc) // deferred: a panicking kernel must not leak the lease
		applyRows(rows, srcs, outs, 0, size, sc)
		return false
	}
	codePoolOnce.Do(startCodePool)
	stripes := runtime.GOMAXPROCS(0)
	stripeSize := (size + stripes - 1) / stripes
	stripeSize = (stripeSize + stripeAlign - 1) &^ (stripeAlign - 1)
	wg := stripeWaitGroups.Get().(*sync.WaitGroup)
	for lo := 0; lo < size; lo += stripeSize {
		hi := lo + stripeSize
		if hi > size {
			hi = size
		}
		wg.Add(1)
		submitStripe(stripeJob{rows: rows, srcs: srcs, outs: outs, lo: lo, hi: hi, done: wg})
	}
	wg.Wait()
	stripeWaitGroups.Put(wg)
	return true
}

// applyRows runs the row kernel over one byte range of every chunk.
func applyRows(rows [][]byte, srcs [][]byte, outs [][]byte, lo, hi int, sc *stripeScratch) {
	views := sc.views[:0]
	for _, s := range srcs {
		views = append(views, s[lo:hi])
	}
	for _, o := range outs {
		views = append(views, o[lo:hi])
	}
	sc.views = views
	gf256.MulRows(rows, views[:len(srcs)], views[len(srcs):], true)
}
