package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"naspipe/internal/transport"
)

// Sizes of the transport probe: round trips for the latency figures,
// back-to-back frames for throughput. Both finish well under a second
// on loopback.
const (
	pingRounds  = 2000
	floodFrames = 20000
)

// probeTransport measures Link round-trip time and throughput over
// loopback TCP, and round-trip time over the in-process ChanTransport.
func probeTransport(ctx context.Context, m map[string]metric) error {
	rtt, fps, err := probeTCP(ctx)
	if err != nil {
		return fmt.Errorf("tcp link probe: %w", err)
	}
	p50, _ := percentile(rtt, 50)
	p90, _ := percentile(rtt, 90)
	m["transport.tcp_rtt_us_p50"] = metric{p50, "us"}
	m["transport.tcp_rtt_us_p90"] = metric{p90, "us"}
	m["transport.tcp_frames_per_s"] = metric{fps, "1/s"}
	crtt, err := probeChan(ctx)
	if err != nil {
		return fmt.Errorf("chan transport probe: %w", err)
	}
	p50, _ = percentile(crtt, 50)
	p90, _ = percentile(crtt, 90)
	m["transport.chan_rtt_us_p50"] = metric{p50, "us"}
	m["transport.chan_rtt_us_p90"] = metric{p90, "us"}
	return nil
}

// probeTCP connects a dial-side and an accept-side Link over loopback,
// echoes sequenced frames for the round-trip samples (µs), then floods
// one way and reports delivered frames per second.
func probeTCP(ctx context.Context) (rtt []float64, fps float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	defer ln.Close()
	accept := transport.NewLink(transport.LinkConfig{Local: 1, Peer: transport.Coordinator})
	defer accept.Close()
	dial := transport.NewLink(transport.LinkConfig{Local: transport.Coordinator, Peer: 1,
		Redial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		}})
	defer dial.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			accept.Attach(c)
		}
	}()
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := dial.Connect(cctx); err != nil {
		return nil, 0, err
	}

	// The echo side answers each ping and, in flood mode, counts
	// arrivals until the last one.
	flood := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		seen := 0
		for f := range accept.In() {
			if !f.Type.Sequenced() {
				continue
			}
			select {
			case <-flood:
				if seen++; seen == floodFrames {
					close(flooded)
				}
			default:
				if accept.Send(transport.Frame{Type: transport.FrameNote, From: 1, To: transport.Coordinator, Payload: f.Payload}) != nil {
					return
				}
			}
		}
	}()
	payload := make([]byte, 64)
	timeout := time.After(10 * time.Second)
	for i := 0; i < pingRounds; i++ {
		t := time.Now()
		if err := dial.Send(transport.Frame{Type: transport.FrameNote, From: transport.Coordinator, To: 1, Payload: payload}); err != nil {
			return nil, 0, err
		}
		for got := false; !got; {
			select {
			case f := <-dial.In():
				got = f.Type.Sequenced()
			case <-timeout:
				return nil, 0, fmt.Errorf("echo %d of %d timed out", i, pingRounds)
			}
		}
		rtt = append(rtt, float64(time.Since(t))/float64(time.Microsecond))
	}
	close(flood)
	t := time.Now()
	for i := 0; i < floodFrames; i++ {
		if err := dial.Send(transport.Frame{Type: transport.FrameNote, From: transport.Coordinator, To: 1, Payload: payload}); err != nil {
			return nil, 0, err
		}
	}
	select {
	case <-flooded:
	case <-timeout:
		return nil, 0, fmt.Errorf("flood of %d frames timed out", floodFrames)
	}
	return rtt, floodFrames / time.Since(t).Seconds(), nil
}

// probeChan echoes messages between two stages of a ChanTransport and
// returns the round-trip samples in µs.
func probeChan(ctx context.Context) ([]float64, error) {
	tr := transport.NewChanTransport(2, 1)
	defer tr.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case msg := <-tr.Recv(1):
				if tr.Send(transport.Msg{Type: transport.FrameNote, From: 1, To: 0, Seq: msg.Seq}) != nil {
					return
				}
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()
	rtt := make([]float64, 0, pingRounds)
	timeout := time.After(10 * time.Second)
	for i := 0; i < pingRounds; i++ {
		t := time.Now()
		if err := tr.Send(transport.Msg{Type: transport.FrameNote, From: 0, To: 1, Seq: i}); err != nil {
			return nil, err
		}
		select {
		case <-tr.Recv(0):
		case <-timeout:
			return nil, fmt.Errorf("echo %d of %d timed out", i, pingRounds)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		rtt = append(rtt, float64(time.Since(t))/float64(time.Microsecond))
	}
	return rtt, nil
}
