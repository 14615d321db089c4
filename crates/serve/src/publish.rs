//! Decision fan-out: every published line goes to every live subscriber.
//!
//! Subscribers are plain `Write` sinks — stdout, a file, or TCP
//! connections added by [`spawn_acceptor`]. A subscriber whose write
//! fails (closed socket, broken pipe) is dropped silently; publishing is
//! infallible from the engine's point of view so a dead reader can never
//! stall or crash the control loop.

use std::io::Write;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::proto::OutMsg;

/// Fan-out hub for publish-stream lines.
pub struct Publisher {
    subscribers: Mutex<Vec<Box<dyn Write + Send>>>,
}

impl Publisher {
    /// Creates a hub with no subscribers.
    pub fn new() -> Arc<Self> {
        Arc::new(Self { subscribers: Mutex::new(Vec::new()) })
    }

    /// Adds a subscriber; it receives every subsequently published line.
    pub fn subscribe(&self, writer: Box<dyn Write + Send>) {
        self.lock().push(writer);
    }

    /// Publishes one message to every subscriber, appending the newline.
    /// Subscribers whose write or flush fails are dropped.
    ///
    /// # Panics
    /// On a non-finite number in `msg` (see [`OutMsg::to_line`]).
    pub fn publish(&self, msg: &OutMsg) {
        let mut line = msg.to_line();
        line.push('\n');
        self.publish_encoded(&line);
    }

    /// Publishes one encoded line, which ends in its `\n`, as a single
    /// write per subscriber (a subscriber never sees a line without its
    /// newline), then yields the CPU.
    ///
    /// A pipe or socket write wakes its reader with a hint that the writer
    /// is about to sleep, so the kernel may queue the reader on the
    /// publishing thread's CPU. An engine catching up on queued slots never
    /// sleeps, and a reader queued there waited until the engine had
    /// drained the ingest queue: with a 64-slot queue the first decision of
    /// a resumed backfill reached its reader after ~3 ms instead of ~1 ms
    /// in about half the sessions. Yielding lets a woken reader run at once;
    /// with nothing else runnable it returns immediately.
    pub fn publish_encoded(&self, line: &str) {
        debug_assert!(line.ends_with('\n'), "a published line ends in its newline");
        let mut subs = self.lock();
        subs.retain_mut(|w| w.write_all(line.as_bytes()).and_then(|()| w.flush()).is_ok());
        drop(subs);
        std::thread::yield_now();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Box<dyn Write + Send>>> {
        self.subscribers.lock().expect("publisher mutex poisoned")
    }
}

/// Accepts TCP subscribers forever: each connection gets the `hello`
/// banner and then the live decision stream, with no line in between: the
/// banner is written under the publisher lock and the subscriber joins
/// before the lock is released, so a client that has read the banner is
/// already subscribed. The thread exits when the listener errors (e.g. the
/// process is shutting down and closed it).
pub fn spawn_acceptor(
    listener: TcpListener,
    publisher: Arc<Publisher>,
    hello: OutMsg,
) -> JoinHandle<()> {
    let mut banner = hello.to_line();
    banner.push('\n');
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { break };
            let mut subscribers = publisher.lock();
            let greeted =
                stream.write_all(banner.as_bytes()).and_then(|()| stream.flush()).is_ok();
            if greeted {
                subscribers.push(Box::new(stream));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Test sink writing into a shared buffer, optionally failing.
    struct SharedBuf {
        buf: Arc<Mutex<Vec<u8>>>,
        fail: Arc<AtomicBool>,
    }

    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "dead"));
            }
            self.buf.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn publishes_to_all_and_drops_dead_subscribers() {
        let publisher = Publisher::new();
        let a = Arc::new(Mutex::new(Vec::new()));
        let b = Arc::new(Mutex::new(Vec::new()));
        let b_fail = Arc::new(AtomicBool::new(false));
        publisher.subscribe(Box::new(SharedBuf {
            buf: Arc::clone(&a),
            fail: Arc::new(AtomicBool::new(false)),
        }));
        publisher.subscribe(Box::new(SharedBuf { buf: Arc::clone(&b), fail: Arc::clone(&b_fail) }));

        publisher.publish(&OutMsg::End { slots: 1 });
        b_fail.store(true, Ordering::SeqCst);
        publisher.publish(&OutMsg::End { slots: 2 });
        // A dropped subscriber stays dropped once its writes would succeed.
        b_fail.store(false, Ordering::SeqCst);
        publisher.publish(&OutMsg::End { slots: 3 });

        let a = String::from_utf8(a.lock().unwrap().clone()).unwrap();
        assert_eq!(
            a,
            "{\"type\":\"end\",\"slots\":1}\n{\"type\":\"end\",\"slots\":2}\n{\"type\":\"end\",\"slots\":3}\n"
        );
        let b = String::from_utf8(b.lock().unwrap().clone()).unwrap();
        assert_eq!(b, "{\"type\":\"end\",\"slots\":1}\n", "dead subscriber dropped");
    }

    #[test]
    fn tcp_subscribers_get_banner_then_stream() {
        use std::io::{BufRead, BufReader};
        use std::net::TcpStream;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let publisher = Publisher::new();
        let _acceptor = spawn_acceptor(
            listener,
            Arc::clone(&publisher),
            OutMsg::Hello { policy: "coca".into(), groups: 2 },
        );

        let client = TcpStream::connect(addr).unwrap();
        let mut lines = BufReader::new(client).lines();
        let banner = lines.next().unwrap().unwrap();
        assert!(matches!(OutMsg::parse(&banner), Ok(OutMsg::Hello { .. })), "{banner}");

        // Having read the banner, the client is subscribed: no waiting.
        publisher.publish(&OutMsg::End { slots: 9 });
        let line = lines.next().unwrap().unwrap();
        assert_eq!(OutMsg::parse(&line).unwrap(), OutMsg::End { slots: 9 });
    }
}
