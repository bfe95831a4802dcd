package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// StartPprof serves the net/http/pprof profiling endpoints — plus the
// registry's Prometheus text exposition at /metrics — on addr (e.g.
// "localhost:6060"; a ":0" port picks a free one) in a background
// goroutine and returns the bound address and a stop function. reg may
// be nil, in which case /metrics serves an empty exposition. It uses a
// private mux, so nothing leaks onto http.DefaultServeMux. stop closes
// the listener and every open connection and returns once the serving
// goroutine has exited, so the address refuses connections afterwards.
func StartPprof(addr string, reg *Registry) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", PromHandler(reg))
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		// Serve closes ln on return, also when Close wins the race
		// and Serve returns before accepting.
		_ = srv.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}
