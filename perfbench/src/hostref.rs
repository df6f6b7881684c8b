//! How fast the host runs right now, measured with a frozen reference
//! kernel between the segments of the benchmark's timed regions.
//!
//! The measuring host is shared: co-tenants slow the same code by up to
//! ±30% for seconds to minutes at a time, so raw round times of one commit
//! spread wider from run to run than any useful regression bound. The
//! reference kernel is a small mesh router of its own — dimension-order
//! routing of a random permutation with bounded node queues and one cache
//! line of state per packet — which stresses the host the way the engine
//! does (scattered per-packet state, branchy per-node loops, about 1.6 MiB
//! of data). It lives in the benchmark and never changes with the
//! simulator, so its time measures the host, not the code under test.
//!
//! Timed regions are measured in segments (a drain's steps in blocks, one
//! steady schedule, one construction), with a reference sample between
//! segments, outside the timing. A segment's host-adjusted time is its raw
//! time times [`NOMINAL_S`] over the mean of the samples on either side:
//! the time it would have taken on a host where the kernel takes
//! [`NOMINAL_S`].

/// Mesh side of the reference kernel.
pub(crate) const N: usize = 128;
/// Packets a node queue holds.
const CAP: usize = 8;
/// The reference drain's time on the measuring host when it is quiet
/// (median over many samples), in seconds. Host-adjusted times are
/// expressed relative to it; it is a fixed unit, never re-measured.
const NOMINAL_S: f64 = 0.055;

/// One packet: destination, the step it last moved in and its hops, padded
/// to one cache line, as the engine's per-packet state is scattered.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct Packet {
    dst: u32,
    moved_at: u32,
    hops: u32,
}

/// The reference input: a fixed xorshift permutation of the nodes, the
/// destination of the packet that starts at each node.
pub(crate) fn permutation() -> Vec<u32> {
    let mut perm: Vec<u32> = (0..(N * N) as u32).collect();
    let mut s = 0x2545_f491_4f6c_dd1du64;
    for i in (1..perm.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        perm.swap(i, (s % (i as u64 + 1)) as usize);
    }
    perm
}

/// The kernel's state, allocated once: a sample allocates nothing, so it
/// neither fragments the heap under a live `Sim` nor adds to peak memory.
pub(crate) struct Kernel {
    perm: Vec<u32>,
    packets: Vec<Packet>,
    queue: Vec<u32>,
    len: Vec<u8>,
}

impl Kernel {
    pub(crate) fn new() -> Kernel {
        let nodes = N * N;
        Kernel {
            perm: permutation(),
            packets: vec![Packet::default(); nodes],
            queue: vec![0; nodes * CAP],
            len: vec![0; nodes],
        }
    }

    /// Routes the reference permutation to completion; returns the number
    /// of moves, which equals the permutation's total L1 distance.
    pub(crate) fn drain(&mut self) -> u64 {
        let Kernel {
            perm,
            packets,
            queue,
            len,
        } = self;
        let nodes = N * N;
        for (node, &dst) in perm.iter().enumerate() {
            packets[node] = Packet {
                dst,
                moved_at: u32::MAX,
                hops: 0,
            };
            queue[node * CAP] = node as u32;
            len[node] = 1;
        }
        let mut live = nodes;
        let mut step = 0u32;
        while live > 0 {
            assert!(step < 64 * N as u32, "reference kernel failed to drain");
            for node in 0..nodes {
                let (x, y) = (node % N, node / N);
                let mut used = 0u8;
                let mut k = 0;
                while k < len[node] as usize {
                    let id = queue[node * CAP + k] as usize;
                    let p = packets[id];
                    if p.moved_at == step {
                        k += 1;
                        continue;
                    }
                    let (dx, dy) = (p.dst as usize % N, p.dst as usize / N);
                    let (dir, next) = if dx > x {
                        (0, node + 1)
                    } else if dx < x {
                        (1, node - 1)
                    } else if dy > y {
                        (2, node + N)
                    } else if dy < y {
                        (3, node - N)
                    } else {
                        remove(queue, len, node, k);
                        live -= 1;
                        continue;
                    };
                    if used & (1 << dir) != 0 || len[next] as usize == CAP {
                        k += 1;
                        continue;
                    }
                    used |= 1 << dir;
                    remove(queue, len, node, k);
                    queue[next * CAP + len[next] as usize] = id as u32;
                    len[next] += 1;
                    packets[id].moved_at = step;
                    packets[id].hops += 1;
                }
            }
            step += 1;
        }
        packets.iter().map(|p| p.hops as u64).sum()
    }
}

fn remove(queue: &mut [u32], len: &mut [u8], node: usize, k: usize) {
    let base = node * CAP;
    queue.copy_within(base + k + 1..base + len[node] as usize, base + k);
    len[node] -= 1;
}

/// Turns raw segment times into host-adjusted ones, sampling the host
/// between segments.
pub struct HostClock {
    kernel: Kernel,
    last: f64,
    /// Every sample taken: the time of one reference drain, in seconds.
    pub samples: Vec<f64>,
}

impl HostClock {
    /// Takes the first sample, which also warms the kernel up.
    pub fn new() -> HostClock {
        let mut clock = HostClock {
            kernel: Kernel::new(),
            last: 0.0,
            samples: Vec::new(),
        };
        clock.last = clock.sample();
        clock
    }

    fn sample(&mut self) -> f64 {
        let t = std::time::Instant::now();
        std::hint::black_box(self.kernel.drain());
        let s = t.elapsed().as_secs_f64();
        self.samples.push(s);
        s
    }

    /// The host-adjusted time of a segment that took `raw_s` and ended just
    /// now.
    pub fn adjust(&mut self, raw_s: f64) -> f64 {
        let now = self.sample();
        let host = (self.last + now) / 2.0;
        self.last = now;
        raw_s * NOMINAL_S / host
    }
}
