package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// A client that never finishes its request line loses the connection once
// the header timeout passes: the listener does not hold it open for it.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header timeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /slack HT"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("after %q: %v; want the server to close the connection", reply, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}
