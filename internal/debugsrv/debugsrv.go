// Package debugsrv is a daemon's debug endpoint (-debug-addr on gupsterd
// and datastored): net/http/pprof under /debug/pprof/ and a plain-text
// exposition of the node's wire.StatsResponse at /debug/stats, from the
// standard library alone. Starting one switches on the runtime's mutex and
// block profiles; nothing else in the process does, so a daemon without
// the flag — and every test and benchmark — runs as it did.
package debugsrv

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gupster/internal/wire"
)

// The profiles' sampling: one contended mutex event in mutexFraction, and
// blocking events in proportion to their duration at one per blockRate ns.
const (
	mutexFraction = 5
	blockRate     = 10_000
)

// Server is a running debug endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr and serves the endpoint; stats is read on every
// request to /debug/stats.
func Start(addr string, stats func() wire.StatsResponse) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug endpoint: %w", err)
	}
	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRate)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(exposition(stats()))
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr is the address the endpoint listens on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint and closes its listener.
func (s *Server) Close() error { return s.srv.Close() }

// exposition renders st one value a line, "name value", each name the
// field's json name; a list's rows are numbered ("hops.0.p50_us 812") and
// an absent section is left out.
func exposition(st wire.StatsResponse) []byte {
	var b bytes.Buffer
	expose(&b, "", reflect.ValueOf(st))
	return b.Bytes()
}

func expose(b *bytes.Buffer, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			field, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			expose(b, join(name, field), v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			expose(b, join(name, strconv.Itoa(i)), v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			expose(b, name, v.Elem())
		}
	default:
		fmt.Fprintf(b, "%s %v\n", name, v.Interface())
	}
}

func join(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}
