package main

import "time"

// now and since are the benchmark's only wall-clock reads. Host time is
// what this program measures; none of it reaches a simulated result.

func now() time.Time {
	return time.Now() //tclint:allow wallclock -- the benchmark measures host time by design
}

func since(t time.Time) time.Duration {
	return time.Since(t) //tclint:allow wallclock -- the benchmark measures host time by design
}

// sysClock feeds real wall time to the in-process job server, which
// requires an injected clock for its event timestamps.
type sysClock struct{}

func (sysClock) Now() time.Time { return now() }
