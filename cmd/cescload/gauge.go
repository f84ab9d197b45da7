package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on share their cores with other
// tenants, and how much work a CPU-second buys swings by up to two times
// within minutes. Every timing figure, CPU time per tick included, moves
// with it, so the run-to-run spread of raw figures is mostly the
// neighbours'. A speed gauge tracks that swing: a goroutine locked to its
// own thread times a fixed kernel in thread CPU time every gaugePeriod.
// The kernel scans a tick-shaped JSON document, the kind of branchy byte
// work cescd and the client do most. It allocates nothing, so the
// generator's garbage collector never charges its work to the gauge, and
// busy-looping the other core does not slow it: it moves with the
// machine's own speed. Each end-to-end timing is scaled by the speed
// measured while it was taken.

// gaugePeriod is the gauge's sampling period; each sample costs under a
// millisecond of one core.
const gaugePeriod = 50 * time.Millisecond

// gaugeSpan is the shortest interval a speed estimate covers: twenty
// samples.
const gaugeSpan = 20 * gaugePeriod

// gaugePasses is how many kernel passes one sample times.
const gaugePasses = 128

// gaugeRefCost is the thread CPU time of one kernel pass on the reference
// machine: the two-core VM the bounds were measured on, when its
// neighbours are idle. A figure scaled to speed 1 reads as it would there.
const gaugeRefCost = 5 * time.Microsecond

// gaugeDoc is the kernel's input: 48 ticks in the NDJSON wire shape.
var gaugeDoc = func() []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < 48; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		switch i % 3 {
		case 0:
			b.WriteString(`{"events":["Addr","MCmd_rd","SCmd_accept"]}`)
		case 1:
			b.WriteString(`{"events":["SData","SResp"],"props":{"busy":true}}`)
		default:
			b.WriteString(`{}`)
		}
	}
	b.WriteByte(']')
	return b.Bytes()
}()

// gaugeKernel is one pass of the gauge's fixed work.
func gaugeKernel() bool { return json.Valid(gaugeDoc) }

// threadCPU is the calling thread's CPU time
// (clock_gettime(CLOCK_THREAD_CPUTIME_ID)).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

type gaugeSample struct {
	at   time.Time
	cost time.Duration // thread CPU time of one kernel pass
}

// speedGauge samples the machine's speed until stopped.
type speedGauge struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []gaugeSample
}

func startGauge() *speedGauge {
	p := &speedGauge{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(gaugePeriod)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				start := threadCPU()
				for i := 0; i < gaugePasses; i++ {
					gaugeKernel()
				}
				cost := (threadCPU() - start) / gaugePasses
				if cost <= 0 {
					continue // the thread clock is unavailable
				}
				p.mu.Lock()
				p.samples = append(p.samples, gaugeSample{at: time.Now(), cost: cost})
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// close stops the gauge and waits for its goroutine to exit.
func (p *speedGauge) close() {
	close(p.stop)
	<-p.done
}

// speed is how fast the machine ran from a to b relative to the
// reference: gaugeRefCost over the median kernel cost sampled then, 1 at
// reference speed and 0.5 at half. An interval shorter than gaugeSpan is
// widened to gaugeSpan around its middle, so that every estimate rests on
// enough samples.
func (p *speedGauge) speed(a, b time.Time) float64 {
	if span := b.Sub(a); span < gaugeSpan {
		a, b = a.Add((span-gaugeSpan)/2), b.Add((gaugeSpan-span)/2)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var costs []time.Duration
	for _, s := range p.samples {
		if !s.at.Before(a) && s.at.Before(b) {
			costs = append(costs, s.cost)
		}
	}
	if len(costs) == 0 {
		return 1
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	return float64(gaugeRefCost) / float64(costs[len(costs)/2])
}
