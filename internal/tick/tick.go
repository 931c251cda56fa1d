// Package tick coalesces the control plane's periodic work onto one
// goroutine and one timer. Before it, every maintenance loop — the
// saturation measurement, the cache autoscaler, the auto-replanner, the
// transport server's staged-put janitor, the repair scanner — owned a
// goroutine parked in its own time.Ticker select, so an idle server woke
// up five times per interval set just to decide there was nothing to do.
// A Scheduler tracks every job's next due time, sleeps until the
// earliest one, and runs due jobs sequentially on its single goroutine.
//
// Jobs must be short relative to the finest registered period: a slow
// job delays its peers (by design — bounded periodic work is the point).
// Long work belongs on its own goroutine, triggered from a job.
package tick

import (
	"sync"
	"time"
)

// Job is one registered periodic task, the handle Register returns and
// Kick and Unregister take. fn receives the scheduler's notion of now;
// elapsed-time accounting is the job's own business.
type Job struct {
	period time.Duration // 0 = kick-only: runs only via Kick
	fn     func(now time.Time)
	next   time.Time
	kicked bool
}

// Scheduler batches periodic jobs onto one goroutine. Construct with
// New; register jobs before or after Start.
type Scheduler struct {
	mu     sync.Mutex
	jobs   []*Job
	kickCh chan struct{}
	stopCh chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// New returns a running scheduler.
func New() *Scheduler {
	s := &Scheduler{
		kickCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// Register adds a periodic job and returns its handle. period == 0
// registers a kick-only job that runs solely when Kick is called. Every
// call adds a job of its own, so subsystems sharing one scheduler cannot
// disturb each other's.
func (s *Scheduler) Register(period time.Duration, fn func(now time.Time)) *Job {
	j := &Job{period: period, fn: fn}
	if period > 0 {
		j.next = time.Now().Add(period)
	}
	s.mu.Lock()
	s.jobs = append(s.jobs, j)
	s.mu.Unlock()
	s.wake()
	return j
}

// Kick schedules the job to run at the next loop wakeup, regardless of
// its period. A job that is no longer registered is ignored.
func (s *Scheduler) Kick(j *Job) {
	s.mu.Lock()
	j.kicked = true
	s.mu.Unlock()
	s.wake()
}

// Unregister removes the job. Needed by subsystems that run their
// periodic work on a shared (injected) scheduler: their Close cannot stop
// the scheduler, so they pull their jobs instead. A job currently
// executing finishes; it is only its future runs that are cancelled.
// A job that is no longer registered is ignored.
func (s *Scheduler) Unregister(j *Job) {
	s.mu.Lock()
	for i, old := range s.jobs {
		if old == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.wake()
}

func (s *Scheduler) wake() {
	select {
	case s.kickCh <- struct{}{}:
	default:
	}
}

// Close stops the scheduler and waits for an in-flight job to finish.
func (s *Scheduler) Close() {
	s.once.Do(func() { close(s.stopCh) })
	s.wg.Wait()
}

// NumJobs returns the number of registered jobs.
func (s *Scheduler) NumJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

func (s *Scheduler) loop() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []*Job
	for {
		now := time.Now()
		due = due[:0]
		var wake time.Time
		s.mu.Lock()
		for _, j := range s.jobs {
			ready := j.kicked || (j.period > 0 && !now.Before(j.next))
			if ready {
				j.kicked = false
				if j.period > 0 {
					// Schedule from now, not from the previous due time:
					// a late tick (slow peer job, suspended VM) must not
					// cause a burst of catch-up runs.
					j.next = now.Add(j.period)
				}
				due = append(due, j)
			}
			if j.period > 0 && (wake.IsZero() || j.next.Before(wake)) {
				wake = j.next
			}
		}
		s.mu.Unlock()

		for _, j := range due {
			j.fn(now)
		}

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if wake.IsZero() {
			// Only kick-only jobs (or none): sleep until kicked.
			select {
			case <-s.kickCh:
			case <-s.stopCh:
				return
			}
			continue
		}
		timer.Reset(time.Until(wake))
		select {
		case <-timer.C:
		case <-s.kickCh:
		case <-s.stopCh:
			return
		}
	}
}
