package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// rssSampler reads the process's resident set size every period until
// stopped.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS(period time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v, ok := rssMB(); ok {
					s.mb = append(s.mb, v)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// rssMB reads the current resident set size from /proc/self/statm.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}
