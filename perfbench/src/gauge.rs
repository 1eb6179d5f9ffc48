//! A fixed computation that gauges how fast the host runs right now.
//!
//! Other tenants of a shared host slow the simulator down by up to half,
//! for minutes at a time, through the caches and memory they share with
//! it. The gauge is a small discrete-event loop with the simulator's
//! memory habits (an event heap, per-node arrays and hash maps, boxed
//! allocations), so it slows down with the host in much the same way, and
//! `run.py` rescales the simulator's host times by it. It uses no crate of
//! the repository: a change to the program never changes the gauge.
//!
//! Its state, about 6 MB, is sized to what tracked the simulations best:
//! of 2, 6, 23 and 74 MB variants timed between back-to-back simulations,
//! the 6 MB one followed their slow spells most closely on both
//! `fleet-steady` and `node-recal`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Simulated nodes, each with its own state.
const NODES: usize = 100;
/// `f64` slots of per-node array state.
const SLOTS: usize = 4_096;
/// Distinct keys of per-node map state.
const KEYS: u64 = 512;
/// Events handled per gauge.
const EVENTS: u64 = 400_000;

/// One node's state: array slots and keyed records.
type Node = (Vec<f64>, HashMap<u64, [f64; 4]>);

/// Runs the gauge once, allocating its state afresh, and returns its host
/// seconds.
pub fn gauge_secs() -> f64 {
    let t0 = Instant::now();
    black_box(gauge(black_box(0x9e37_79b9_7f4a_7c15)));
    t0.elapsed().as_secs_f64()
}

fn gauge(seed: u64) -> f64 {
    let mut nodes: Vec<Node> = (0..NODES)
        .map(|_| (vec![0.0; SLOTS], HashMap::new()))
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..4096)
        .map(|i| Reverse((i, i as usize % NODES)))
        .collect();
    let mut boxes: Vec<Box<[u64; 24]>> = Vec::new();
    let (mut x, mut acc) = (seed, 0.0);
    for _ in 0..EVENTS {
        let Reverse((t, n)) = heap.pop().expect("the heap never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (slots, map) = &mut nodes[n];
        for k in 0..4 {
            let i = (x >> (k * 12)) as usize % SLOTS;
            slots[i] += 1.0;
            acc += slots[i * 7 % SLOTS];
        }
        let e = map.entry((x >> 20) % KEYS).or_insert([0.0; 4]);
        e[0] += 1.0;
        acc += e[1];
        if x & 7 == 0 {
            boxes.push(Box::new([x; 24]));
        }
        if boxes.len() > 512 {
            boxes.swap_remove(x as usize % 512);
        }
        heap.push(Reverse((t + 1 + x % 4096, (x >> 3) as usize % NODES)));
    }
    acc + boxes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gauge_does_the_same_work_every_time() {
        assert_eq!(gauge(1).to_bits(), gauge(1).to_bits());
        assert!(gauge_secs() > 0.0);
    }
}
