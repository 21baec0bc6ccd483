package journal

import "sync"

// StallSync makes j's next fsync wait: stalled is closed once the flusher
// reaches it, and release lets it go. release is idempotent.
func StallSync(j *Journal) (stalled <-chan struct{}, release func()) {
	reached, gate := make(chan struct{}), make(chan struct{})
	var once, reach sync.Once
	j.mu.Lock()
	j.beforeSync = func() {
		reach.Do(func() {
			close(reached)
			<-gate
		})
	}
	j.mu.Unlock()
	return reached, func() { once.Do(func() { close(gate) }) }
}
