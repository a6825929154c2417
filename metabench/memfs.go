package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
)

// memFS is an in-memory fsim.FS: the tmpfs case for cluster-durable's
// journals and checkpoints. Every durability code path still runs (WAL
// framing, checkpoint encoding and CRC, temp-file writes, renames, file
// and directory fsyncs); only the device is left out, because a shared
// disk's fsync latency drifts between runs by more than any bound this
// benchmark could keep. Paths are cleaned; directories exist once made.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
	dirs  map[string]bool
}

type memData struct{ b []byte }

func newMemFS() *memFS {
	return &memFS{files: map[string]*memData{}, dirs: map[string]bool{}}
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			return nil
		}
	}
}

func (m *memFS) OpenFile(path string, flag int, _ os.FileMode) (fsim.File, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[path]
	switch {
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist("open", path)
	case !ok && !m.dirs[filepath.Dir(path)]:
		return nil, notExist("open", path)
	case !ok:
		d = &memData{}
		m.files[path] = d
	}
	if flag&os.O_TRUNC != 0 {
		d.b = d.b[:0]
	}
	return &memFile{fs: m, name: path, d: d}, nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, notExist("open", path)
	}
	return append([]byte(nil), d.b...), nil
}

func (m *memFS) ReadDir(path string) ([]os.DirEntry, error) {
	dir := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, notExist("open", path)
	}
	var out []os.DirEntry
	for p, d := range m.files {
		if filepath.Dir(p) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(d.b))}))
		}
	}
	for p := range m.dirs {
		if p != dir && filepath.Dir(p) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), dir: true}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	if !m.dirs[filepath.Dir(newpath)] {
		return notExist("rename", newpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = d
	return nil
}

func (m *memFS) Remove(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[filepath.Clean(path)]
	if !ok {
		return notExist("truncate", path)
	}
	d.truncate(size)
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Clean(dir)] {
		return notExist("sync", dir)
	}
	return nil
}

func (m *memFS) Glob(pattern string) ([]string, error) {
	if _, err := filepath.Match(pattern, ""); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for p := range m.files {
		if ok, _ := filepath.Match(pattern, p); ok {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (d *memData) truncate(size int64) {
	if size <= int64(len(d.b)) {
		d.b = d.b[:size]
		return
	}
	d.b = append(d.b, make([]byte, size-int64(len(d.b)))...)
}

// memFile writes through to its memData; writes always append, which is
// every use the durability layers make (fresh temp files and appends).
type memFile struct {
	fs   *memFS
	name string
	d    *memData
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.d.b = append(f.d.b, p...)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	f.d.truncate(size)
	f.fs.mu.Unlock()
	return nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.d.b))}, nil
}

func (f *memFile) Close() error { return nil }

// memInfo is the os.FileInfo of a memFS file or directory.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() os.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
