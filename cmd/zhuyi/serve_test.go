package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeClosesSlowHeaderConnections opens a connection to the serve
// HTTP server and sends only part of a request header: the server must
// close the connection once readHeaderTimeout passes, not hold it open
// for as long as the client stays silent.
func TestServeClosesSlowHeaderConnections(t *testing.T) {
	t.Parallel()
	hs := newHTTPServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("write/read timeouts %v/%v: campaign streams must not be cut off", hs.WriteTimeout, hs.ReadTimeout)
	}
	if hs.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// No blank line ends the header: the request never completes.
	if _, err := io.WriteString(conn, "GET /v1/stats HTTP/1.1\r\nHost: zhuyi\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v: the server never timed out the header", time.Since(start))
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
