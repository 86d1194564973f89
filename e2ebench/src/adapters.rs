//! Timing adapters around the sources handed to `Sender`, so the video
//! pull and the payload pull show as child spans of `Sender::next_frame`.

use crate::trace::{self, Layer};
use inframe_core::sender::PayloadSource;
use inframe_frame::Plane;
use inframe_video::{FrameRate, VideoSource};

/// A [`VideoSource`] whose pulls are timed as `video.next_frame`.
pub struct TimedVideo<V>(pub V);

impl<V: VideoSource> VideoSource for TimedVideo<V> {
    fn width(&self) -> usize {
        self.0.width()
    }
    fn height(&self) -> usize {
        self.0.height()
    }
    fn frame_rate(&self) -> FrameRate {
        self.0.frame_rate()
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        trace::timed(Layer::VideoNextFrame, || self.0.next_frame()).0
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        trace::timed(Layer::VideoNextFrame, || self.0.next_frame_into(out)).0
    }
}

/// A [`PayloadSource`] whose pulls are timed under `layer`.
pub struct TimedPayload<P> {
    pub inner: P,
    pub layer: Layer,
}

impl<P: PayloadSource> PayloadSource for TimedPayload<P> {
    fn next_payload(&mut self, bits: usize) -> Vec<bool> {
        trace::timed(self.layer, || self.inner.next_payload(bits)).0
    }
}
