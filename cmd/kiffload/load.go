package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is drive's time source: seconds since the start of the run.
// Tests substitute a fake one.
type clock interface {
	Now() float64
	SleepUntil(t float64)
}

type realClock struct{ epoch time.Time }

func newRealClock() realClock { return realClock{epoch: time.Now()} }

func (c realClock) Now() float64 { return time.Since(c.epoch).Seconds() }

// SleepUntil blocks the calling thread in nanosleep: the runtime's own
// timers wake sleepers with up to a millisecond of delay, which would be
// charged to every request as send lag.
func (c realClock) SleepUntil(t float64) {
	if d := time.Duration((t - c.Now()) * float64(time.Second)); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// sender sends one request over one connection and returns the
// response's status and body. Tests substitute a fake server.
type sender interface {
	Send(req []byte) (status int, body []byte, err error)
}

// result is what happened to one op of the schedule.
type result struct {
	Sent   bool
	SentAt float64 // seconds since the start of the run
	DoneAt float64
	OK     bool // answered, with the expected status and a valid body
}

// Latency is the time from the op's due time to its completion, so that
// the wait a stall imposes on the ops queued behind it is charged to
// them (no coordinated omission).
func (r result) Latency(due float64) float64 { return r.DoneAt - due }

// Lag is how late the generator sent the op.
func (r result) Lag(due float64) float64 { return r.SentAt - due }

// checkFunc validates one response; it runs on the worker goroutines, so
// it must be safe for concurrent use.
type checkFunc func(i int, status int, body []byte) error

// drive runs the open-loop schedule over the given connections, one
// worker per connection. Workers take ops in due order; an op whose due
// time has come while every connection is busy waits for the next free
// one. An op still unsent when its phase ends is dropped and recorded as
// unsent: the backlog does not spill into the next phase. drive returns
// once every worker has finished.
func drive(ops []Op, s schedule, clk clock, conns []sender, check checkFunc) []result {
	res := make([]result, len(ops))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	take := func() int { return int(next.Add(1) - 1) }
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := take(); i < len(ops); i = take() {
				clk.SleepUntil(s.Due[i])
				now := clk.Now()
				if now > s.Phases[s.Phase[i]].End {
					continue
				}
				status, body, err := c.Send(ops[i].Req)
				r := result{Sent: true, SentAt: now, DoneAt: clk.Now()}
				if err == nil {
					err = check(i, status, body)
				}
				r.OK = err == nil
				if err != nil {
					logf("op %d (%s): %v", i, ops[i].Kind, err)
				}
				res[i] = r
			}
		}()
	}
	wg.Wait()
	return res
}

// requestTimeout bounds one request, so that a hung server fails the
// run instead of stalling it.
const requestTimeout = 30 * time.Second

// httpConn is one keep-alive HTTP/1.1 connection, redialed after an
// error.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func (h *httpConn) Send(req []byte) (int, []byte, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	status, body, err := h.roundTrip(req)
	if err != nil {
		h.Close()
	}
	return status, body, err
}

func (h *httpConn) roundTrip(req []byte) (int, []byte, error) {
	if err := h.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		h.Close()
	}
	return resp.StatusCode, body, nil
}

func (h *httpConn) Close() {
	if h.c != nil {
		h.c.Close()
		h.c, h.br = nil, nil
	}
}

// get performs one GET over the connection and requires a 200.
func (h *httpConn) get(path string) ([]byte, error) {
	status, body, err := h.Send(request("GET", path, ""))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return body, nil
}
