//! Summing parameter gradients across the devices that hold replicas of the
//! same parameter but saw different rows of the batch (or of the sequence):
//! the depth axis of 2.5D, the row-splitting groups of the 2D / 3D meshes,
//! the ring of sequence parallelism.

use colossalai_autograd::{Layer, Param};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_tensor::Tensor;

/// `inner` with each backward's parameter-gradient contribution all-reduced
/// over `groups`, one after the other (two groups that together span a 2-D
/// set of devices sum over the whole set).
pub struct GradSync<L: Layer> {
    ctx: DeviceCtx,
    groups: Vec<Group>,
    inner: L,
}

impl<L: Layer> GradSync<L> {
    pub fn new(ctx: &DeviceCtx, groups: Vec<Group>, inner: L) -> Self {
        GradSync {
            ctx: ctx.clone(),
            groups,
            inner,
        }
    }
}

impl<L: Layer> Layer for GradSync<L> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.inner.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        // set aside what earlier backwards banked, so that only this pass's
        // contribution is reduced (gradient accumulation stays a plain sum)
        let mut banked = Vec::new();
        self.inner.visit_params(&mut |p| {
            let zeros = Tensor::zeros(p.value().shape().clone());
            banked.push(std::mem::replace(p.grad_mut(), zeros));
        });
        let dx = self.inner.backward(dy);
        let mut banked = banked.into_iter();
        self.inner.visit_params(&mut |p| {
            let mut grad = banked.next().expect("one banked gradient per param");
            let mut pass = p.grad().clone();
            for group in &self.groups {
                pass = group.all_reduce(&self.ctx, pass);
            }
            grad.axpy(1.0, &pass);
            *p.grad_mut() = grad;
        });
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}
