package lazy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoBuildsOnce(t *testing.T) {
	var c Cell[int]
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(func() (int, error) {
				builds.Add(1)
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Do = (%d, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times", n)
	}
}

func TestErrorIsPermanent(t *testing.T) {
	var c Cell[string]
	boom := fmt.Errorf("boom")
	if _, err := c.Do(func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("first Do err = %v", err)
	}
	// A later Do must not rebuild past the settled failure.
	if _, err := c.Do(func() (string, error) { return "fine", nil }); err != boom {
		t.Fatalf("second Do err = %v, want the settled failure", err)
	}
}

func TestSeedConsumesBuild(t *testing.T) {
	var c Cell[int]
	c.Seed(7, nil)
	v, err := c.Do(func() (int, error) {
		t.Fatal("build ran after Seed")
		return 0, nil
	})
	if v != 7 || err != nil {
		t.Fatalf("Do after Seed = (%d, %v)", v, err)
	}
	// Seeding a settled cell is a no-op.
	c.Seed(9, nil)
	if v, _, ok := c.Built(); !ok || v != 7 {
		t.Fatalf("Built after re-Seed = (%d, %v)", v, ok)
	}
}

func TestPanickedBuildSettlesWithError(t *testing.T) {
	var c Cell[*int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build panic did not propagate")
			}
		}()
		c.Do(func() (*int, error) { panic("boom") })
	}()
	// The once is consumed; later callers must see a typed error, not a
	// nil value with a nil error (which a nil-deref would then chase).
	v, err := c.Do(func() (*int, error) {
		t.Fatal("build re-ran after panic")
		return nil, nil
	})
	if v != nil || err != ErrBuildPanicked {
		t.Fatalf("Do after panicked build = (%v, %v), want (nil, ErrBuildPanicked)", v, err)
	}
}

func TestBuiltNeverBuilds(t *testing.T) {
	var c Cell[int]
	if _, _, ok := c.Built(); ok {
		t.Fatal("empty cell reports built")
	}
	c.Seed(3, nil)
	if v, err, ok := c.Built(); !ok || v != 3 || err != nil {
		t.Fatalf("Built = (%d, %v, %v)", v, err, ok)
	}
}

func TestDoContextWaiterLeaves(t *testing.T) {
	var c Cell[int]
	started, release := make(chan struct{}), make(chan struct{})
	built := make(chan int, 1)
	go func() {
		v, _ := c.DoContext(context.Background(), func() (int, error) {
			close(started)
			<-release
			return 5, nil
		})
		built <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DoContext(ctx, func() (int, error) {
		t.Fatal("waiter ran a second build")
		return 0, nil
	}); err != context.Canceled {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-built; v != 5 {
		t.Fatalf("builder got %d, want 5", v)
	}
	// A settled value wins over an ended ctx.
	if v, err := c.DoContext(ctx, nil); v != 5 || err != nil {
		t.Fatalf("DoContext on a settled cell = (%d, %v)", v, err)
	}
}

func TestGoBuildOutlivesCaller(t *testing.T) {
	var c Cell[int]
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Go(ctx, func() (int, error) {
		<-release
		return 8, nil
	}); err != context.Canceled {
		t.Fatalf("starter err = %v, want context.Canceled", err)
	}
	if _, _, ok := c.Built(); ok {
		t.Fatal("cell settled before its build returned")
	}
	close(release)
	if v, err := c.Go(context.Background(), nil); v != 8 || err != nil {
		t.Fatalf("Go after the build = (%d, %v)", v, err)
	}
}
