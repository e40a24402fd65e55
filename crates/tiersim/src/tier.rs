//! Bandwidth-channel model: epoch-bucketed capacity accounting.
//!
//! The simulator's thread interleaving is only approximately
//! time-ordered (a pointer-chasing thread jumps hundreds of cycles per
//! access), so a scalar "next free" queue would falsely serialize
//! requests that arrive out of order. Instead each tier's channel books
//! line transfers into fixed-length *epochs*; queue delay is the
//! standard busy-period backlog over the epoch ring. Bookings commute,
//! so arrival-order noise cannot fabricate contention, while sustained
//! overload still builds a real queue (loaded-latency inflation, the
//! effect Figures 2c and 11 rely on).

/// Cycles per epoch bucket.
const EPOCH_CYCLES: u64 = 128;

/// Epochs tracked in the ring (window of `EPOCHS * EPOCH_CYCLES` cycles).
const EPOCHS: usize = 32;

/// One memory tier's bandwidth channel.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Cycles one 64-byte line occupies the channel.
    transfer: f64,
    /// Line capacity of one epoch.
    cap: f64,
    /// Lines booked per epoch, ring-indexed by `epoch % EPOCHS`.
    lines: [f64; EPOCHS],
    /// Epoch index of the oldest ring slot.
    base: u64,
    /// Unserved backlog (lines) carried out of expired epochs.
    carry: f64,
    /// Lifetime count of lines booked (for per-window traffic metrics).
    booked: u64,
    /// Busy-period backlog (lines) after each epoch, ring-indexed like
    /// `lines`; exact for epochs in `[base, valid)`.
    prefix: [f64; EPOCHS],
    /// First epoch whose cached prefix is stale.
    valid: u64,
}

impl Channel {
    /// Creates a channel where each line transfer occupies
    /// `transfer_cycles` of channel time.
    ///
    /// # Panics
    ///
    /// Panics if `transfer_cycles` is not positive/finite.
    pub fn new(transfer_cycles: f64) -> Self {
        assert!(
            transfer_cycles > 0.0 && transfer_cycles.is_finite(),
            "transfer time must be positive"
        );
        Self {
            transfer: transfer_cycles,
            cap: EPOCH_CYCLES as f64 / transfer_cycles,
            lines: [0.0; EPOCHS],
            base: 0,
            carry: 0.0,
            booked: 0,
            prefix: [0.0; EPOCHS],
            valid: 0,
        }
    }

    /// Cycles one line occupies the channel.
    pub fn transfer_cycles(&self) -> f64 {
        self.transfer
    }

    /// Expires ring epochs older than the window ending at `t`'s epoch
    /// into the carry; returns that epoch, clamped into the ring (very
    /// old arrivals land in the oldest slot).
    fn advance_to(&mut self, t: u64) -> u64 {
        let epoch = t / EPOCH_CYCLES;
        if epoch >= self.base + EPOCHS as u64 {
            let shift = epoch + 1 - (self.base + EPOCHS as u64);
            for _ in 0..shift.min(EPOCHS as u64) {
                let idx = slot(self.base);
                self.carry = (self.carry + self.lines[idx] - self.cap).max(0.0);
                self.lines[idx] = 0.0;
                self.base += 1;
            }
            if shift > EPOCHS as u64 {
                // The whole window expired: drain the carry across the gap.
                let gap = shift - EPOCHS as u64;
                self.carry = (self.carry - gap as f64 * self.cap).max(0.0);
                self.base += gap;
            }
            // The carry is the expired epochs' prefix, so cached prefixes
            // of surviving epochs stay exact.
            self.valid = self.valid.max(self.base);
        }
        epoch.max(self.base)
    }

    /// Busy-period backlog (lines) from the oldest tracked epoch through
    /// ring epoch `e`: the recursion `b = max(0, b + lines[j] - cap)`
    /// started from the carry, resumed from the last exact prefix.
    fn backlog_through(&mut self, e: u64) -> f64 {
        if e < self.valid {
            return self.prefix[slot(e)];
        }
        let mut backlog = if self.valid == self.base {
            self.carry
        } else {
            self.prefix[slot(self.valid - 1)]
        };
        for j in self.valid..=e {
            backlog = (backlog + self.lines[slot(j)] - self.cap).max(0.0);
            self.prefix[slot(j)] = backlog;
        }
        self.valid = e + 1;
        backlog
    }

    /// Unserved backlog at cycle `t`, in lines, advancing the ring.
    fn backlog_lines(&mut self, t: u64) -> f64 {
        let e = self.advance_to(t);
        self.backlog_through(e)
    }

    /// Books `n` line transfers at cycle `t`; returns the queue delay in
    /// cycles the *last* of them experiences.
    pub fn book(&mut self, t: u64, n: u64) -> f64 {
        self.booked += n;
        let e = self.advance_to(t);
        self.lines[slot(e)] += n as f64;
        self.valid = self.valid.min(e);
        ((self.backlog_through(e) - 1.0).max(0.0)) * self.transfer
    }

    /// Lifetime count of line transfers booked on this channel.
    pub fn lines_booked(&self) -> u64 {
        self.booked
    }

    /// Unserved backlog at cycle `t`, in lines, computed without
    /// advancing the ring. The invariant checker uses this to bound the
    /// drained-line total (`lines_booked - backlog`) by channel capacity
    /// without perturbing subsequent bookings the way
    /// [`backlog_cycles`](Self::backlog_cycles) would.
    pub fn backlog_lines_at(&self, t: u64) -> f64 {
        self.clone().backlog_lines(t)
    }

    /// Line capacity of one epoch (`EPOCH_CYCLES / transfer_cycles`).
    pub fn epoch_capacity_lines(&self) -> f64 {
        self.cap
    }

    /// Number of epochs elapsed by cycle `t` (for capacity bounds).
    pub fn epoch_index(t: u64) -> u64 {
        t / EPOCH_CYCLES
    }

    /// Serializes the epoch ring, carry, and lifetime booking counter
    /// (transfer time and capacity come from construction on restore).
    pub(crate) fn encode_state(&self, w: &mut pact_stats::ByteWriter) {
        let Channel {
            // Fixed by channel construction.
            transfer: _,
            cap: _,
            lines,
            base,
            carry,
            booked,
            // Derived from the fields above; decode empties it.
            prefix: _,
            valid: _,
        } = self;
        for &l in lines {
            w.put_f64(l);
        }
        w.put_u64(*base);
        w.put_f64(*carry);
        w.put_u64(*booked);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state)
    /// into a channel constructed with the same transfer time.
    pub(crate) fn decode_state(
        &mut self,
        r: &mut pact_stats::ByteReader<'_>,
    ) -> Result<(), String> {
        let Channel {
            // Kept from construction.
            transfer: _,
            cap: _,
            lines,
            base,
            carry,
            booked,
            // Derived state, not in the frame: start with an empty cache.
            prefix: _,
            valid,
        } = self;
        let e = |e: pact_stats::CodecError| format!("channel state: {e}");
        for l in lines.iter_mut() {
            *l = r.get_f64().map_err(e)?;
        }
        *base = r.get_u64().map_err(e)?;
        *carry = r.get_f64().map_err(e)?;
        *booked = r.get_u64().map_err(e)?;
        *valid = *base;
        Ok(())
    }

    /// Current backlog at cycle `t`, in cycles of channel time (used by
    /// the prefetcher to yield under load).
    pub fn backlog_cycles(&mut self, t: u64) -> f64 {
        self.backlog_lines(t) * self.transfer
    }
}

/// Ring slot of `epoch`.
fn slot(epoch: u64) -> usize {
    (epoch % EPOCHS as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_channel_has_no_delay() {
        let mut ch = Channel::new(2.7);
        assert_eq!(ch.book(1_000, 1), 0.0);
        assert_eq!(ch.book(50_000, 1), 0.0);
    }

    #[test]
    fn burst_within_epoch_queues() {
        let mut ch = Channel::new(2.7);
        // Epoch capacity is 128/2.7 ~ 47.4 lines; book 100 at once.
        let d = ch.book(0, 100);
        assert!(d > 50.0 * 2.7, "delay {d}");
    }

    #[test]
    fn out_of_order_bookings_commute() {
        let mut a = Channel::new(4.0);
        let mut b = Channel::new(4.0);
        // Same bookings, different order, within one ring window.
        let (mut da, mut db) = (0.0, 0.0);
        for &t in &[500u64, 100, 300, 900, 200] {
            da += a.book(t, 10);
        }
        for &t in &[100u64, 200, 300, 500, 900] {
            db += b.book(t, 10);
        }
        assert!((da - db).abs() < 1e-9, "{da} vs {db}");
    }

    #[test]
    fn sustained_overload_builds_backlog() {
        let mut ch = Channel::new(4.0); // cap 32 lines/epoch
        let mut last = 0.0;
        for e in 0..20u64 {
            last = ch.book(e * EPOCH_CYCLES, 64); // 2x capacity
        }
        // Backlog grows ~32 lines per epoch => delay keeps climbing.
        assert!(last > 19.0 * 32.0 * 4.0 * 0.9, "delay {last}");
    }

    #[test]
    fn backlog_drains_over_idle_epochs() {
        let mut ch = Channel::new(4.0);
        ch.book(0, 320); // 10 epochs worth
        let busy = ch.backlog_cycles(0);
        assert!(busy > 1_000.0);
        // After the whole window plus slack passes, the queue is empty.
        let later = (EPOCHS as u64 + 16) * EPOCH_CYCLES;
        assert_eq!(ch.backlog_cycles(later), 0.0);
        assert_eq!(ch.book(later, 1), 0.0);
    }

    #[test]
    fn carry_propagates_across_window_advance() {
        let mut ch = Channel::new(4.0);
        ch.book(0, 3_200); // 100 epochs of work booked at t=0
                           // One window later the backlog must still be large.
        let t = EPOCHS as u64 * EPOCH_CYCLES;
        assert!(ch.backlog_cycles(t) > 1_000.0);
    }

    #[test]
    fn old_arrivals_clamp_into_window() {
        let mut ch = Channel::new(4.0);
        ch.book(100_000, 1);
        // An arrival far in the past books into the oldest slot and
        // does not panic or corrupt state.
        let d = ch.book(10, 1);
        assert!(d >= 0.0);
    }

    #[test]
    fn lines_booked_counts_lifetime_traffic() {
        let mut ch = Channel::new(4.0);
        assert_eq!(ch.lines_booked(), 0);
        ch.book(0, 10);
        ch.book(10_000, 3);
        assert_eq!(ch.lines_booked(), 13);
    }

    #[test]
    fn backlog_lines_at_agrees_with_mutating_backlog_and_is_pure() {
        let mut ch = Channel::new(4.0);
        ch.book(0, 320);
        ch.book(5 * EPOCH_CYCLES, 64);
        for &t in &[
            0u64,
            3 * EPOCH_CYCLES,
            40 * EPOCH_CYCLES,
            100 * EPOCH_CYCLES,
        ] {
            let pure = ch.backlog_lines_at(t);
            let pure2 = ch.backlog_lines_at(t);
            assert_eq!(pure, pure2, "pure query must not mutate");
            let mut probe = ch.clone();
            let cycles = probe.backlog_cycles(t);
            assert!(
                (pure * 4.0 - cycles).abs() < 1e-9,
                "t={t}: {pure} lines vs {cycles} cycles"
            );
        }
    }

    /// The channel without the prefix cache: every query reruns the
    /// busy-period recursion over the whole ring from the carry. The
    /// bit-exact reference for [`Channel`].
    #[derive(Clone)]
    struct FullScan {
        transfer: f64,
        cap: f64,
        lines: [f64; EPOCHS],
        base: u64,
        carry: f64,
    }

    impl FullScan {
        fn new(transfer: f64) -> Self {
            Self {
                transfer,
                cap: EPOCH_CYCLES as f64 / transfer,
                lines: [0.0; EPOCHS],
                base: 0,
                carry: 0.0,
            }
        }

        fn advance_to(&mut self, epoch: u64) {
            if epoch < self.base + EPOCHS as u64 {
                return;
            }
            let shift = epoch + 1 - (self.base + EPOCHS as u64);
            for _ in 0..shift.min(EPOCHS as u64) {
                let idx = (self.base % EPOCHS as u64) as usize;
                self.carry = (self.carry + self.lines[idx] - self.cap).max(0.0);
                self.lines[idx] = 0.0;
                self.base += 1;
            }
            if shift > EPOCHS as u64 {
                let gap = shift - EPOCHS as u64;
                self.carry = (self.carry - gap as f64 * self.cap).max(0.0);
                self.base += gap;
            }
        }

        fn scan(&self, e: u64) -> f64 {
            let mut backlog = self.carry;
            for j in self.base..=e {
                backlog = (backlog + self.lines[(j % EPOCHS as u64) as usize] - self.cap).max(0.0);
            }
            backlog
        }

        fn book(&mut self, t: u64, n: u64) -> f64 {
            let epoch = t / EPOCH_CYCLES;
            self.advance_to(epoch);
            let e = epoch.max(self.base);
            self.lines[(e % EPOCHS as u64) as usize] += n as f64;
            ((self.scan(e) - 1.0).max(0.0)) * self.transfer
        }

        fn backlog_cycles(&mut self, t: u64) -> f64 {
            let epoch = t / EPOCH_CYCLES;
            self.advance_to(epoch);
            self.scan(epoch.max(self.base)) * self.transfer
        }

        fn backlog_lines_at(&self, t: u64) -> f64 {
            let mut probe = self.clone();
            let epoch = t / EPOCH_CYCLES;
            probe.advance_to(epoch);
            probe.scan(epoch.max(probe.base))
        }
    }

    #[test]
    fn prefix_cache_is_bit_identical_to_the_full_ring_scan() {
        const CALLS: u32 = 40_000;
        let ring = EPOCHS as u64 * EPOCH_CYCLES;
        let mut rng = pact_stats::SplitMix64::new(0x00C0_FFEE);
        // Under- to over-subscribed: 128, 47, 32 and 29 lines per epoch.
        for transfer in [1.0, 2.708, 4.0, 4.4] {
            let mut ch = Channel::new(transfer);
            let mut reference = FullScan::new(transfer);
            let mut now = 0u64;
            let mut queued = 0u32;
            for call in 0..CALLS {
                if call == CALLS / 2 {
                    let mut w = pact_stats::ByteWriter::new();
                    ch.encode_state(&mut w);
                    let bytes = w.into_bytes();
                    ch = Channel::new(transfer);
                    ch.decode_state(&mut pact_stats::ByteReader::new(&bytes))
                        .expect("frame decodes");
                }
                let t = match rng.random_range(0..64u32) {
                    // A gap longer than the ring expires every epoch.
                    0 => {
                        now += rng.random_range(ring + EPOCH_CYCLES..3 * ring);
                        now
                    }
                    // Older than the ring: clamps into the base epoch.
                    1 | 2 => now.saturating_sub(rng.random_range(ring..10 * ring)),
                    // Out of order within the ring.
                    3..=14 => now.saturating_sub(rng.random_range(0..ring)),
                    // In order.
                    _ => {
                        now += rng.random_range(0..8u64);
                        now
                    }
                };
                let n = if rng.random_range(0..32u32) == 0 {
                    rng.random_range(1..4097u64)
                } else {
                    1
                };
                let (got, want) = match rng.random_range(0..8u32) {
                    0 => (ch.backlog_cycles(t), reference.backlog_cycles(t)),
                    1 => (ch.backlog_lines_at(t), reference.backlog_lines_at(t)),
                    _ => (ch.book(t, n), reference.book(t, n)),
                };
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "transfer {transfer}, call {call} at t={t}: {got} vs {want}"
                );
                queued += u32::from(got > 0.0);
            }
            assert!(
                queued > CALLS / 10,
                "transfer {transfer}: only {queued} calls saw a queue"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_transfer_rejected() {
        Channel::new(0.0);
    }
}
