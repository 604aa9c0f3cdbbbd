package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

// Fleet shape: the paper's k-of-n sharing with the smallest n that
// tolerates a failure.
const (
	providersPerGroup = 3
	threshold         = 2
)

// masterKey is the data source's secret. It is fixed so that a client
// re-attached through ExportCatalog/ImportCatalog derives the same shares.
var masterKey = []byte("sssdb-benchmark-master-key")

// fleet is the real stack in one process: durable stores, each behind its
// own transport server on loopback TCP, and one client holding one
// multiplexed connection per provider.
type fleet struct {
	groups    int
	storeOpts store.Options
	// clientOpts is what serve builds the client with: the threshold, the
	// key and, on a sharded fleet, the shard key; every other option at its
	// default.
	clientOpts client.Options
	dirs       []string
	stores     []*store.Store
	servers    []*transport.Server
	conns      []transport.Conn
	db         *client.Client
}

// openStores opens one store per directory (creating or recovering it) as a
// fleet that serves nothing yet.
func openStores(dirs []string, groups int, storeOpts store.Options) (*fleet, error) {
	f := &fleet{groups: groups, storeOpts: storeOpts, dirs: dirs,
		clientOpts: client.Options{K: threshold, MasterKey: masterKey}}
	if groups > 1 {
		f.clientOpts.ShardKeys = map[string]string{"emp": "id"}
	}
	for _, dir := range dirs {
		st, err := store.OpenOptions(dir, storeOpts)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("opening store %s: %w", dir, err)
		}
		f.stores = append(f.stores, st)
	}
	return f, nil
}

// newFleetDirs creates groups×providersPerGroup empty provider directories
// under root.
func newFleetDirs(root string, groups int) ([]string, error) {
	var dirs []string
	for i := 0; i < groups*providersPerGroup; i++ {
		dir := filepath.Join(root, fmt.Sprintf("p%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
	}
	return dirs, nil
}

// serve starts a transport server per store, dials each, and builds the
// client. Every server and dial option is left at its default. tr, when
// non-nil, wraps every handler and connection in the timing wrappers of
// trace.go.
func (f *fleet) serve(tr *tracer) error {
	for i, st := range f.stores {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		var h transport.Handler = server.New(st)
		if tr != nil {
			if h, err = traceHandler(h, i, tr); err != nil {
				ln.Close()
				return err
			}
		}
		srv := transport.NewServerWith(ln, h, transport.ServerConfig{})
		f.servers = append(f.servers, srv)
		conn, err := transport.DialWith(srv.Addr().String(), transport.DialConfig{})
		if err != nil {
			return fmt.Errorf("dialing provider %d: %w", i, err)
		}
		if tr != nil {
			if conn, err = traceConn(conn, i, tr); err != nil {
				return err
			}
		}
		f.conns = append(f.conns, conn)
	}
	var err error
	if f.groups > 1 {
		grouped := make([][]transport.Conn, f.groups)
		for g := range grouped {
			grouped[g] = f.conns[g*providersPerGroup : (g+1)*providersPerGroup]
		}
		f.db, err = client.NewSharded(grouped, f.clientOpts)
	} else {
		f.db, err = client.New(f.conns, f.clientOpts)
	}
	return err
}

// stopServing closes the client, its connections and the servers, leaving
// the stores open.
func (f *fleet) stopServing() error {
	var errs []error
	if f.db != nil {
		errs = append(errs, f.db.Close())
		f.db = nil
	} else {
		for _, c := range f.conns {
			errs = append(errs, c.Close())
		}
	}
	f.conns = nil
	for _, s := range f.servers {
		errs = append(errs, s.Close())
	}
	f.servers = nil
	return errors.Join(errs...)
}

// reserve re-serves the same open stores through fresh servers and
// connections — wrapped when tr is non-nil — and re-attaches a client that
// carries the old client's catalog over.
func (f *fleet) reserve(tr *tracer) error {
	catalog, err := f.db.ExportCatalog()
	if err != nil {
		return err
	}
	if err := f.stopServing(); err != nil {
		return err
	}
	if err := f.serve(tr); err != nil {
		return err
	}
	return f.db.ImportCatalog(catalog)
}

func (f *fleet) close() error {
	errs := []error{f.stopServing()}
	for _, st := range f.stores {
		errs = append(errs, st.Close())
	}
	f.stores = nil
	return errors.Join(errs...)
}

// checkpointAll forces a checkpoint on every store, so directory sizes
// reflect pages rather than an arbitrary WAL suffix.
func (f *fleet) checkpointAll() error {
	for i, st := range f.stores {
		if err := st.Checkpoint(); err != nil {
			return fmt.Errorf("checkpointing provider %d: %w", i, err)
		}
	}
	return nil
}

// storedBytes sums the sizes of every file under the provider directories.
func (f *fleet) storedBytes() (int64, error) {
	var total int64
	for _, dir := range f.dirs {
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// crashCopy copies every provider directory into root while the stores stay
// open and un-Closed: what a process kill would leave behind is what has
// been written, and the copy is that state. A background checkpoint may run
// during the copy. While it is only writing, copying the manifest first
// keeps the copy consistent (the old manifest's files are all still there),
// and its temporary files, which vanish when renamed into place, are
// skipped. Once it completes it deletes superseded files; that is detected
// by its counter and the copy is retaken.
func (f *fleet) crashCopy(root string) ([]string, error) {
	var dirs []string
	for i, src := range f.dirs {
		dst := filepath.Join(root, fmt.Sprintf("p%d", i))
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			before := f.stores[i].Stats().Checkpoints
			if err = os.RemoveAll(dst); err != nil {
				return nil, err
			}
			err = copyDir(src, dst)
			if f.stores[i].Stats().Checkpoints == before && err == nil {
				break
			}
			if err == nil {
				err = fmt.Errorf("checkpoints kept completing while copying %s", src)
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dst)
	}
	return dirs, nil
}

// copyDir copies the regular files under src to dst in name order with the
// store manifest first, skipping files that vanish before they are opened.
func copyDir(src, dst string) error {
	var files []string
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		files = append(files, rel)
		return nil
	})
	if err != nil {
		return err
	}
	const manifest = "store.manifest"
	sort.Slice(files, func(i, j int) bool {
		if (files[i] == manifest) != (files[j] == manifest) {
			return files[i] == manifest
		}
		return files[i] < files[j]
	})
	for _, rel := range files {
		if err := copyFile(filepath.Join(src, rel), filepath.Join(dst, rel)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
