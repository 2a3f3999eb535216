package main

import (
	"math/bits"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine a run lands on does not run at one speed: on a shared host
// the memory system slows and recovers as other tenants' load comes and
// goes, and the simulator slows with it. Before every timed pass a grid
// workload samples the rate of the probe below, and reports setup_s at a
// reference memory speed: scaled by the probe's median rate relative to
// speedProbeRef. Where it narrows the ten-seed spread (scaleRun), the
// other times are scaled too. Over two ten-seed sets on a shared 2-vCPU
// virtual machine, the scaling narrowed setup_s on every grid workload,
// cut the worst insns_per_s spread of frontier from 0.24 to 0.11 and of
// campaign from 0.22 to 0.11, but widened headline's in both sets, from
// 0.085 to 0.16 and from 0.14 to 0.18 (see README.md, Steadiness).

const (
	speedProbeWords  = 4 << 20 // 32 MB: past the private caches, into the shared cache and memory
	speedProbeLoads  = 1 << 20 // dependent loads per worker and sample
	speedProbeRef    = 1.2e7   // loads/s that count as reference speed
	speedProbeStride = 2654435761
)

// speedProbe chases pointers through a buffer outside the Go heap, so it
// adds nothing to the heap the runs measure.
type speedProbe struct {
	words []uint64
}

func newSpeedProbe() (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, speedProbeWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), speedProbeWords)
	for i := range words {
		words[i] = uint64(i) * speedProbeStride % speedProbeWords
	}
	return &speedProbe{words: words}, nil
}

// rate runs speedProbeLoads dependent loads on each of workers goroutines
// and returns the loads completed per second.
func (p *speedProbe) rate(workers int) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w)
			for k := uint64(0); k < speedProbeLoads; k++ {
				_, lo := bits.Mul64(x+k, speedProbeStride)
				x = p.words[lo%speedProbeWords]
			}
			sums[w] = x
		}(w)
	}
	wg.Wait()
	return float64(workers*speedProbeLoads) / time.Since(start).Seconds()
}
