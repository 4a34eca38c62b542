// Package lazy provides the one small build-once cell shared by the
// lazily constructed values of the serving layer (tenant services, cost
// tables, cluster indexes, scatter-gather searchers). The pattern
// appears wherever an expensive derived structure is built on first
// use: the first user builds it while concurrent users wait, an
// incremental update may instead seed a new cell with an
// already-derived value (consuming the build), and observers need to
// ask "is it built?" without triggering a build.
package lazy

import (
	"context"
	"errors"
	"sync"
)

// ErrBuildPanicked settles a cell whose build panicked: the panic
// propagates to the first caller, and every later caller observes this
// error instead of a zero value masquerading as a successful build.
var ErrBuildPanicked = errors.New("lazy: build panicked")

// Cell is a concurrency-safe, build-or-seed-once value. The zero value
// is an empty cell ready for use. Exactly one of the first Do, Go or
// Seed call populates it; every later call returns or keeps the
// settled result. A Cell must not be copied after first use.
type Cell[T any] struct {
	mu sync.Mutex
	// ready is made by the call that claims the cell and closed once
	// v and err are settled; they are not written after that.
	ready chan struct{}
	done  bool
	v     T
	err   error
}

// Do returns the cell's value, running build on the calling goroutine
// if no Do, Go or Seed claimed the cell yet. Concurrent first callers
// share one build; the build's outcome (including its error) is
// permanent. A build that panics settles the cell with
// ErrBuildPanicked before the panic propagates, so later callers never
// read a zero value with a nil error.
func (c *Cell[T]) Do(build func() (T, error)) (T, error) {
	return c.DoContext(context.Background(), build)
}

// DoContext is Do for a caller that stops waiting when ctx ends: a
// caller that finds another's build in progress returns ctx.Err() if
// ctx ends first, and the build goes on for the callers after it. The
// caller that runs build itself returns when build does.
func (c *Cell[T]) DoContext(ctx context.Context, build func() (T, error)) (T, error) {
	ready, mine := c.claim()
	if mine {
		c.run(build)
	}
	return c.wait(ctx, ready)
}

// Go is DoContext with the build on a goroutine of its own, so the
// caller that starts it can also stop waiting when ctx ends. Use it for
// builds that do not honour a context and may take arbitrarily long.
func (c *Cell[T]) Go(ctx context.Context, build func() (T, error)) (T, error) {
	ready, mine := c.claim()
	if mine {
		go c.run(build)
	}
	return c.wait(ctx, ready)
}

// Seed settles the cell with an already-built value, consuming the
// build-once so a later Do adopts v instead of building. It is a no-op
// on a claimed cell.
func (c *Cell[T]) Seed(v T, err error) {
	if _, mine := c.claim(); mine {
		c.settle(v, err)
	}
}

// Built returns the settled value without triggering a build; ok is
// false while the cell is empty or a build is still running.
func (c *Cell[T]) Built() (v T, err error, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v, c.err, c.done
}

// claim returns the channel closed once the cell is settled, and
// whether the caller claimed the cell and must settle it.
func (c *Cell[T]) claim() (ready chan struct{}, mine bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ready == nil {
		c.ready = make(chan struct{})
		return c.ready, true
	}
	return c.ready, false
}

func (c *Cell[T]) run(build func() (T, error)) {
	settled := false
	defer func() {
		if !settled {
			var zero T
			c.settle(zero, ErrBuildPanicked)
		}
	}()
	v, err := build()
	settled = true
	c.settle(v, err)
}

func (c *Cell[T]) settle(v T, err error) {
	c.mu.Lock()
	c.v, c.err, c.done = v, err, true
	c.mu.Unlock()
	close(c.ready)
}

// wait returns the settled value, or ctx.Err() if ctx ends first. A
// value already settled wins even when ctx has also ended.
func (c *Cell[T]) wait(ctx context.Context, ready chan struct{}) (T, error) {
	select {
	case <-ready:
		return c.v, c.err
	default:
	}
	select {
	case <-ready:
		return c.v, c.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}
