//! Typed send/receive methods of [`Channel`], over the message contract
//! stated in the `channel` module: every integer little-endian, every
//! slice one message without a length prefix, booleans bit-packed.

use crate::channel::Channel;

impl Channel {
    // All writers serialize straight into the channel's staging buffer via
    // `send_with`: no intermediate `Vec` per message.

    /// Stage `v` as one 8-byte message.
    pub fn send_u64(&mut self, v: u64) {
        self.send_with(8, |buf| buf.copy_from_slice(&v.to_le_bytes()));
    }

    /// Stage `vs` as one message of 8 bytes per word.
    pub fn send_u64_slice(&mut self, vs: &[u64]) {
        self.send_word_slice(vs, 8);
    }

    /// Stage `vs` as one message of `bytes` ≤ 8 bytes per word: each
    /// word's low `bytes` bytes (a ring element at ⌈ℓ/8⌉).
    pub fn send_word_slice(&mut self, vs: &[u64], bytes: usize) {
        self.send_with(vs.len() * bytes, |buf| {
            for (c, v) in buf.chunks_exact_mut(bytes).zip(vs) {
                c.copy_from_slice(&v.to_le_bytes()[..bytes]);
            }
        });
    }

    /// Stage `vs` as one message of 16 bytes per word.
    pub fn send_u128_slice(&mut self, vs: &[u128]) {
        self.send_with(vs.len() * 16, |buf| {
            for (c, v) in buf.chunks_exact_mut(16).zip(vs) {
                c.copy_from_slice(&v.to_le_bytes());
            }
        });
    }

    /// Stage `vs` as one message of ⌈n/8⌉ bytes, 8 booleans per byte.
    pub fn send_bool_slice(&mut self, vs: &[bool]) {
        // `send_with` hands out a zeroed buffer, so only the set bits need
        // writing.
        self.send_with(vs.len().div_ceil(8), |buf| {
            for (i, &b) in vs.iter().enumerate() {
                if b {
                    buf[i / 8] |= 1 << (i % 8);
                }
            }
        });
    }

    /// Receive one 8-byte message as a `u64`.
    pub fn recv_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.recv_into(&mut buf);
        u64::from_le_bytes(buf)
    }

    /// Receive one message of `n` words from [`Channel::send_u64_slice`].
    pub fn recv_u64_vec(&mut self, n: usize) -> Vec<u64> {
        self.recv_word_vec(n, 8)
    }

    /// Receive one message of `n` words from [`Channel::send_word_slice`]
    /// at the same `bytes`.
    pub fn recv_word_vec(&mut self, n: usize, bytes: usize) -> Vec<u64> {
        let mut raw = vec![0u8; n * bytes];
        self.recv_into(&mut raw);
        let word = |c: &[u8]| {
            let mut le = [0u8; 8];
            le[..bytes].copy_from_slice(c);
            u64::from_le_bytes(le)
        };
        raw.chunks_exact(bytes).map(word).collect()
    }

    /// Receive one message of `n` words from [`Channel::send_u128_slice`].
    pub fn recv_u128_vec(&mut self, n: usize) -> Vec<u128> {
        let mut raw = vec![0u8; n * 16];
        self.recv_into(&mut raw);
        raw.chunks_exact(16)
            .map(|c| u128::from_le_bytes(c.try_into().expect("chunk is 16 bytes")))
            .collect()
    }

    /// Receive one message of `n` booleans from [`Channel::send_bool_slice`].
    pub fn recv_bool_vec(&mut self, n: usize) -> Vec<bool> {
        let mut raw = vec![0u8; n.div_ceil(8)];
        self.recv_into(&mut raw);
        (0..n).map(|i| raw[i / 8] >> (i % 8) & 1 == 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::channel::channel_pair;
    use std::thread;

    #[test]
    fn typed_roundtrips() {
        let (mut a, mut b) = channel_pair();
        let h = thread::spawn(move || {
            assert_eq!(b.recv_u64(), 7);
            assert_eq!(b.recv_u64_vec(3), vec![1, 2, 3]);
            assert_eq!(b.recv_word_vec(2, 3), vec![0x0a_0b0c, 7]);
            assert_eq!(b.recv_u128_vec(2), vec![u128::MAX, 5]);
            assert_eq!(b.recv_bool_vec(10), {
                let mut v = vec![false; 10];
                v[0] = true;
                v[9] = true;
                v
            });
            assert_eq!(b.recv(), vec![9, 8, 7, 6]);
        });
        a.send_u64(7);
        a.send_u64_slice(&[1, 2, 3]);
        a.send_word_slice(&[0x0a_0b0c, 7], 3);
        a.send_u128_slice(&[u128::MAX, 5]);
        let mut bools = vec![false; 10];
        bools[0] = true;
        bools[9] = true;
        a.send_bool_slice(&bools);
        a.stage(&[9, 8, 7, 6]);
        a.flush();
        h.join().unwrap();
    }

    #[test]
    fn bool_packing_is_compact() {
        let (mut a, mut b) = channel_pair();
        let h = thread::spawn(move || b.recv_bool_vec(17));
        a.send_bool_slice(&[true; 17]);
        a.flush();
        assert_eq!(h.join().unwrap(), vec![true; 17]);
        // 17 bools travel in 3 bytes.
        assert_eq!(a.stats().bytes_alice_to_bob, 3);
    }
}
