// Command datastored runs a GUP-enabled data store (paper §4.2): an XML
// component store serving fetch/update/sync under MDM-signed queries, which
// announces its coverage to the MDM at startup and notifies it of component
// changes (cache invalidation, subscriptions).
//
// Usage:
//
//	datastored -id gup.portal.example -listen 127.0.0.1:7101 \
//	    -mdm 127.0.0.1:7000 -key shared-secret \
//	    -register "/user/presence" -register "/user/calendar" \
//	    [-load profile.xml -user alice] [-heartbeat 5s] \
//	    [-max-concurrency 32] [-queue-depth 64]
//
// -register may repeat; each path is announced as coverage. -load seeds the
// store with a profile document for -user. With -heartbeat the store renews
// its registration lease at the MDM on that interval (keep it under the
// MDM's -lease-ttl) and re-registers automatically if the MDM restarts
// having forgotten the directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gupster/internal/debugsrv"
	"gupster/internal/dirclient"
	"gupster/internal/overload"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	id := flag.String("id", "", "store identity, e.g. gup.portal.example (required)")
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on")
	mdmAddr := flag.String("mdm", "", "MDM address to register with (required)")
	key := flag.String("key", "", "shared referral-signing key (required)")
	load := flag.String("load", "", "optional profile XML file to seed")
	user := flag.String("user", "", "user the seeded profile belongs to")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "registration-lease heartbeat interval (0 disables)")
	maxConc := flag.Int("max-concurrency", 0, "admission control: max concurrently executing requests (0 disables)")
	queueDepth := flag.Int("queue-depth", 0, "admission control: wait-queue depth (0 = 2x max-concurrency)")
	var registers repeated
	flag.Var(&registers, "register", "coverage path to announce (repeatable)")
	debugAddr := flag.String("debug-addr", "", "serve pprof (mutex and block profiles on) and /debug/stats over HTTP here (empty disables)")
	flag.Parse()

	if *id == "" || *mdmAddr == "" || *key == "" {
		fmt.Fprintln(os.Stderr, "datastored: -id, -mdm and -key are required")
		os.Exit(2)
	}

	eng := store.NewEngine(*id)
	eng.Schema = schema.GUP()
	srv := store.NewServer(eng, token.NewSigner([]byte(*key)))
	if *maxConc > 0 {
		srv.Admission = overload.New(overload.Config{
			MaxConcurrency: *maxConc,
			QueueDepth:     *queueDepth,
		}, nil)
	}
	if err := srv.Start(*listen); err != nil {
		log.Fatalf("datastored: %v", err)
	}
	slog.Info("listening", "store", *id, "addr", srv.Addr())
	if *debugAddr != "" {
		dbg, err := debugsrv.Start(*debugAddr, srv.Stats)
		if err != nil {
			log.Fatalf("datastored: %v", err)
		}
		defer dbg.Close()
		slog.Info("debug endpoint", "url", "http://"+dbg.Addr()+"/debug/")
	}

	mdm, err := dirclient.Dial(*mdmAddr)
	if err != nil {
		log.Fatalf("datastored: dial MDM: %v", err)
	}
	defer mdm.Close()

	// Change notifications keep MDM caches and subscriptions fresh.
	eng.OnChange(func(u string, path xpath.Path, xml string, version uint64) {
		err := mdm.Call(context.Background(), u, wire.TypeChanged, &wire.ChangedNotice{
			Store: *id, User: u, Path: path.String(), XML: xml, Version: version,
		}, nil)
		if err != nil {
			slog.Warn("change notice failed", "store", *id, "err", err)
		}
	})

	if *load != "" {
		if *user == "" {
			log.Fatalf("datastored: -load requires -user")
		}
		data, err := os.ReadFile(*load)
		if err != nil {
			log.Fatalf("datastored: %v", err)
		}
		doc, err := xmltree.ParseString(string(data))
		if err != nil {
			log.Fatalf("datastored: parse %s: %v", *load, err)
		}
		p := xpath.MustParse(fmt.Sprintf("/user[@id='%s']", *user))
		if _, err := eng.Put(*user, p, doc); err != nil {
			log.Fatalf("datastored: seed: %v", err)
		}
		slog.Info("profile seeded", "user", *user, "file", *load)
	}

	for _, reg := range registers {
		if _, err := xpath.Parse(reg); err != nil {
			log.Fatalf("datastored: bad coverage path %q: %v", reg, err)
		}
	}
	registrar := store.NewRegistrar(store.RegistrarConfig{
		Store:    *id,
		Addr:     srv.Addr(),
		MDM:      *mdmAddr,
		Coverage: registers,
		Interval: *heartbeat,
	})
	if err := registrar.Start(context.Background()); err != nil {
		log.Fatalf("datastored: %v", err)
	}
	for _, reg := range registers {
		slog.Info("coverage registered", "store", *id, "path", reg)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	_ = registrar.Deregister(context.Background())
	registrar.Close()
	slog.Info("shutting down")
	srv.Close()
}
