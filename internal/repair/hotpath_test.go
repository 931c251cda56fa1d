package repair

import (
	"runtime"
	"testing"
	"time"
)

// TestManagerStopLeaksNoWorkers is the goroutine-leak check for the
// repair workers: stopping the manager mid-repair — scan loop running,
// workers waiting on the queue or reconstructing — must release every
// goroutine it started, including retry sleepers.
func TestManagerStopLeaksNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	c, pool, _ := repairTestPool(t, 8)
	if err := c.FailOSDs(true, 2, 5); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(pool, Config{Workers: 4, ScanInterval: time.Millisecond})
	mgr.Start()
	mgr.Kick()
	// Let repairs actually start so Close lands mid-flight, not on an idle
	// pool.
	time.Sleep(10 * time.Millisecond)
	mgr.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, want <= %d (repair workers or retry sleepers leaked)",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := mgr.Stats(); st.Enqueued == 0 {
		t.Fatalf("repair queue saw no traffic: %+v", st)
	}
}
