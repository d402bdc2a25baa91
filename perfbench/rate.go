package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"syscall"
	"time"

	"repro/internal/server"
)

const (
	// rateQPS is the open-loop offered rate of POST /v1/rate.
	rateQPS = 400
	// warmupRequests are sent before the timed window, unmeasured.
	warmupRequests = 400
)

// rateFixture is the rate workload's generated input: the request
// sequence and, per request and wire mode, the handler's response.
type rateFixture struct {
	in   inputs
	reqs []rateInput
	want [][2][]byte
}

// newRateFixture records the source runs, samples the requests, and
// computes the expected responses through a recorder, with no socket.
func newRateFixture(seed int64) (*rateFixture, error) {
	f := &rateFixture{in: newInputs(seed)}
	traces, err := recordSources(f.in.sources)
	if err != nil {
		return nil, err
	}
	if f.reqs, err = rateInputs(f.in.rng, traces); err != nil {
		return nil, err
	}
	h := server.New(server.Options{}).Handler()
	f.want = make([][2][]byte, len(f.reqs))
	for k, r := range f.reqs {
		for mode := range wireModes {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/rate", bytes.NewReader(r.body[mode]))
			req.Header.Set("Content-Type", wireModes[mode])
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("reference rate request %d: status %d: %s", k, rec.Code, rec.Body)
			}
			f.want[k][mode] = rec.Body.Bytes()
		}
	}
	return f, nil
}

// runRate is rate_mixed: one connection posts /v1/rate open-loop,
// alternating wire modes, while a second streams store-less Table-1
// campaigns at fresh seeds.
func runRate(ctx context.Context, b *bench) error {
	var f *rateFixture
	err := b.setup(func() error {
		var err error
		f, err = newRateFixture(b.seed)
		return err
	})
	if err != nil {
		return err
	}

	srv := server.New(server.Options{Workers: b.workers})
	defer srv.Engine().Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	rateC := oneConnClient()
	defer rateC.CloseIdleConnections()

	bg := &background{client: oneConnClient(), url: base + "/v1/campaign", in: f.in,
		stop: make(chan struct{}), started: make(chan struct{}), done: make(chan struct{})}
	defer bg.client.CloseIdleConnections()
	go bg.run(ctx)
	stopBackground := func() {
		select {
		case <-bg.stop:
		default:
			close(bg.stop)
		}
		<-bg.done
	}
	defer stopBackground()
	select {
	case <-bg.started:
	case <-bg.done:
		return fmt.Errorf("background campaign ended before its first point: %v", bg.misses)
	}

	for n := range warmupRequests {
		k, mode := n%len(f.reqs), n%2
		if _, err := postRate(ctx, rateC, base, f.reqs[k].body[mode], mode); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	// The timed window: request n is due at start + n/rateQPS and is timed
	// from then, so a stall shows in every request it delays.
	n := int(rateQPS * b.budget.Seconds())
	interval := time.Second / rateQPS
	fromDue := make([]time.Duration, 0, n)
	fromSend := make([]time.Duration, 0, n)
	late := make([]time.Duration, 0, n)
	runtime.GC()
	smp := startSampler()
	start := time.Now()
	for i := range n {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		send := time.Now()
		k, mode := i%len(f.reqs), i%2
		got, err := postRate(ctx, rateC, base, f.reqs[k].body[mode], mode)
		done := time.Now()
		b.res.attempted++
		switch {
		case err != nil:
			b.res.failed++
			b.res.miss("rate request %d: %v", i, err)
			continue
		case !bytes.Equal(got, f.want[k][mode]):
			b.res.failed++
			b.res.miss("rate request %d (%s): response differs from the handler's", i, wireModes[mode])
			continue
		}
		fromDue = append(fromDue, done.Sub(due))
		fromSend = append(fromSend, done.Sub(send))
		late = append(late, send.Sub(due))
	}
	end := time.Now()
	smp.finish()
	stopBackground()

	// Background throughput of each campaign that ran inside the window.
	var rates []float64
	for _, c := range bg.campaigns {
		if !c.start.Before(start) && !c.end.After(end) {
			rates = append(rates, float64(c.points)/c.end.Sub(c.start).Seconds())
		}
	}
	b.res.attempted += bg.attempted
	b.res.failed += bg.failed
	for _, m := range bg.misses {
		b.res.miss("%s", m)
	}
	window := end.Sub(start)
	b.res.set("points_per_s", upperQuartile(rates), "1/s")
	b.res.set("peak_heap_mb", smp.heapMB(), "MB")
	b.res.set("rate_p50_us", us(quantile(fromDue, 0.50)), "us")
	b.res.set("rate_p99_us", us(quantile(fromDue, 0.99)), "us")
	b.res.set("rate_samples", float64(len(fromDue)), "count")
	b.res.set("gen.late_p50_us", us(quantile(late, 0.50)), "us")
	b.res.set("gen.late_p99_us", us(quantile(late, 0.99)), "us")
	if !b.traced {
		return nil
	}

	st, err := statsOf(srv.Handler())
	if err != nil {
		return err
	}
	b.reportStats(st)
	b.reportEngine(srv.Engine().Stats())
	b.reportGC(smp)
	b.res.set("engine.first_point_ms", ms(medianDur(bg.firsts)), "ms")
	p50, _ := rateHist(st)
	b.res.set("net.rate_gap_us", us(quantile(fromSend, 0.50))-p50, "us")

	lt, err := sweep(ctx, b.work, f.in.sources, f.reqs, nil)
	if err != nil {
		return fmt.Errorf("traced sweep: %w", err)
	}
	lt.report(b.res)
	b.res.set("replay.divergences", float64(lt.diverged), "count")
	handler := medianDur(append(append([]time.Duration(nil), lt.handler[0]...), lt.handler[1]...))
	b.res.set("engine.unattributed_share", 1-float64(handler)/float64(quantile(fromDue, 0.50)), "ratio")
	b.res.set("tracing.e2e_s", window.Seconds(), "s")
	b.res.set("tracing.overhead", lt.wall.Seconds()/window.Seconds(), "ratio")
	return nil
}

// oneConnClient is an HTTP client that holds at most one connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// postRate posts one rate request and returns the response body; a
// transport error or a status other than 200 is an error.
func postRate(ctx context.Context, c *http.Client, base string, body []byte, mode int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/rate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wireModes[mode])
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, got)
	}
	return got, nil
}

// sleepUntil blocks until t. nanosleep wakes within tens of microseconds,
// where time.Sleep overshot by 0.5 ms at p50 and several milliseconds at
// p99 beside a busy engine worker, which would show up as generator
// lateness.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
			time.Sleep(d)
			return
		}
	}
}

// campaignTime is one background campaign's span, from post to trailer.
type campaignTime struct {
	start, end time.Time
	points     int
}

// background streams Table-1 campaigns at fresh seeds over its own
// connection until stopped, checking every stream for all its points and
// its trailer. Its fields other than the channels are its own until done
// is closed.
type background struct {
	client *http.Client
	url    string
	in     inputs

	stop    chan struct{} // closed to stop after the campaign in flight
	started chan struct{} // closed at the first point
	done    chan struct{} // closed when run returns

	campaigns         []campaignTime  // completed campaigns
	firsts            []time.Duration // per campaign, post to first point
	attempted, failed int
	misses            []string
}

func (bg *background) run(ctx context.Context) {
	defer close(bg.done)
	started := false
	for batch := 0; ; batch++ {
		select {
		case <-bg.stop:
			return
		default:
		}
		body, npts, err := backgroundBody(bg.in, batch)
		if err != nil {
			bg.misses = append(bg.misses, err.Error())
			return
		}
		t0 := time.Now()
		got, err := bg.stream(ctx, body, npts, func() {
			bg.firsts = append(bg.firsts, time.Since(t0))
			if !started {
				started = true
				close(bg.started)
			}
		})
		bg.attempted += npts
		bg.failed += npts - got
		if err != nil {
			bg.misses = append(bg.misses, fmt.Sprintf("background campaign %d: %v", batch, err))
			return
		}
		bg.campaigns = append(bg.campaigns, campaignTime{start: t0, end: time.Now(), points: npts})
	}
}

// stream posts one campaign and reads its NDJSON to the trailer. It
// returns how many points arrived intact; first runs at the first one.
func (bg *background) stream(ctx context.Context, body []byte, npts int, first func()) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, bg.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := bg.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	seen := make([]bool, npts)
	got := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l server.CampaignLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return got, fmt.Errorf("bad stream line: %w", err)
		}
		switch p := l.Point; {
		case p != nil:
			if got == 0 {
				first()
			}
			if p.Index < 0 || p.Index >= npts || seen[p.Index] || p.Error != "" {
				return got, fmt.Errorf("bad point line %s", sc.Bytes())
			}
			seen[p.Index] = true
			got++
		case l.Stats != nil:
			if l.Error != "" || l.Stats.Jobs != npts || l.Stats.Failures != 0 || got != npts {
				return got, fmt.Errorf("trailer %s after %d of %d points", sc.Bytes(), got, npts)
			}
			return got, nil
		default:
			return got, fmt.Errorf("unexpected stream line %s", sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		return got, err
	}
	return got, fmt.Errorf("stream ended after %d of %d points without a trailer", got, npts)
}
