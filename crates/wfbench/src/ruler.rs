//! The ruler: a fixed piece of the benchmark's own work, timed at both
//! ends of every measured window, so that a reading can be told apart
//! from the mood of the machine it was taken on.
//!
//! The sandbox this benchmark was sized on is a 2-vCPU guest of a
//! shared host. What a second of it is worth flips between two
//! levels, about 1.75× apart, every fraction of a second to every few
//! minutes — in CPU time as much as in wall time, with no steal
//! reported: the core's other hardware thread belongs to somebody
//! else. Latency-bound code (a dependent multiply chain, a pointer
//! chase) hardly notices; branchy, allocating, syscall-heavy code —
//! the program under test — loses all of it (depth-1 `submit_p50_us`
//! of one binary: windows of 105 µs and windows of 185 µs, side by
//! side in one round). So the ruler is code of that kind: an ordered
//! map of formatted keys and freshly allocated values, then round
//! trips over a loopback socket to a thread that echoes them.
//!
//! A window's time is divided (a rate multiplied) by how much longer
//! than [`NOMINAL`] the ruler took beside it. On a quiet machine of
//! the sizing sandbox's kind that factor is 1 and nothing changes.
//! The crate README has the measurements that chose the mix.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one sample takes on the sizing sandbox in its quiet stretches
/// (between the 5th and the 25th percentile of some thousand samples
/// taken beside each workload).
pub const NOMINAL: Duration = Duration::from_micros(600);

const KEYS: u32 = 200;
const INSERTS: u32 = 500;
const ROUND_TRIPS: usize = 64;
const MESSAGE: usize = 128;

pub struct Ruler {
    peer: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Ruler {
    /// Starts the echo thread. Call after the process is confined to
    /// its CPU, so the thread inherits the confinement.
    pub fn start() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let echo = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let mut message = [0u8; MESSAGE];
            while stream.read_exact(&mut message).is_ok() && stream.write_all(&message).is_ok() {}
        });
        let peer = TcpStream::connect(addr)?;
        peer.set_nodelay(true)?;
        Ok(Self {
            peer,
            echo: Some(echo),
        })
    }

    /// One sample: how many times [`NOMINAL`] the ruler's work took
    /// just now.
    pub fn sample(&mut self) -> f64 {
        let started = Instant::now();
        let mut map: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for i in 0..INSERTS {
            let key = i.wrapping_mul(2_654_435_761) % KEYS;
            map.insert(format!("key-{key}"), vec![0u8; 48]);
        }
        std::hint::black_box(map.len());
        drop(map);
        let mut message = [7u8; MESSAGE];
        for _ in 0..ROUND_TRIPS {
            // A dead echo thread reads as a fast machine for the rest
            // of the run; the workload's own sockets, which share its
            // loopback, would have failed first.
            if self.peer.write_all(&message).is_err() || self.peer.read_exact(&mut message).is_err()
            {
                break;
            }
        }
        started.elapsed().as_secs_f64() / NOMINAL.as_secs_f64()
    }
}

impl Drop for Ruler {
    fn drop(&mut self) {
        // End of file ends the echo thread.
        let _ = self.peer.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_and_the_echo_thread_ends() {
        let mut ruler = Ruler::start().unwrap();
        let (a, b) = (ruler.sample(), ruler.sample());
        assert!(a > 0.0 && b > 0.0 && a.is_finite() && b.is_finite());
        drop(ruler);
    }
}
