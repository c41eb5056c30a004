// Package nn builds per-training-step dataflow graphs for the paper's four
// workloads: ResNet-50 (CIFAR-10), DCGAN (MNIST), Inception-v3 (ImageNet)
// and a 2-layer LSTM (PTB), with the batch sizes of §IV-A (64, 64, 16, 20).
//
// Each builder emits the forward pass, the backward pass (convolution
// filter/input gradients, fused-batch-norm gradients with their Tile/Mul
// broadcast subgraphs, pooling and activation gradients) and one optimizer
// update per parameter tensor — the operation mix the paper profiles
// (Table VI) and schedules. No numeric tensor data is materialized; the
// runtime under study only observes shapes, dependencies and times.
package nn

import (
	"fmt"

	"opsched/internal/graph"
	"opsched/internal/op"
)

// T is a tensor handle: the graph node that produces it plus its shape.
type T struct {
	ID   graph.NodeID
	Dims op.Dims
}

// bwFn emits the backward subgraph of one forward primitive: given the
// gradient flowing in from downstream it adds the gradient operations and
// returns the gradient with respect to the primitive's input.
type bwFn func(grad T) T

// builder assembles a training-step graph: forward primitives push their
// backward emitters onto a tape which backward() unwinds in reverse.
type builder struct {
	g          *graph.Graph
	bw         []bwFn
	optimizer  op.Kind
	nParams    int
	seq        int
	lastUpdate graph.NodeID // previous optimizer update, for chaining
	// infer builds a forward-only serving graph: backward() drops the tape
	// instead of unwinding it, so no gradient or optimizer operations are
	// emitted and nParams stays zero.
	infer bool
}

func newBuilder(name string, optimizer op.Kind) *builder {
	return &builder{g: graph.New(name), optimizer: optimizer, lastUpdate: -1}
}

func (b *builder) name(base string) string {
	b.seq++
	return fmt.Sprintf("%s_%d", base, b.seq)
}

func (b *builder) push(f bwFn) { b.bw = append(b.bw, f) }

// scope runs f and returns the backward emitters it pushed, removing them
// from the main tape. Branch and residual structures use scopes to compose
// their branch tapes into one emitter.
func (b *builder) scope(f func()) []bwFn {
	start := len(b.bw)
	f()
	sub := append([]bwFn(nil), b.bw[start:]...)
	b.bw = b.bw[:start]
	return sub
}

// runTape unwinds a backward tape in reverse order.
func runTape(tape []bwFn, grad T) T {
	for i := len(tape) - 1; i >= 0; i-- {
		grad = tape[i](grad)
	}
	return grad
}

// backward unwinds the whole tape starting from the loss gradient. In
// inference mode the tape is dropped unrun: the graph ends at the logits.
func (b *builder) backward(lossGrad T) {
	if b.infer {
		b.bw = nil
		return
	}
	runTape(b.bw, lossGrad)
	b.bw = nil
}

// update attaches one optimizer update for a parameter tensor of the given
// shape, depending on the node that produced its gradient. Updates also
// chain to the previous update: TensorFlow's Adam updates serialize on the
// shared beta-power counters and the grouped train op, which keeps the
// ready queue short — the paper observes that "we seldom have more than
// five operations ready to run".
func (b *builder) update(dims op.Dims, gradNode graph.NodeID, label string) {
	b.nParams++
	deps := []graph.NodeID{gradNode}
	if b.lastUpdate >= 0 {
		deps = append(deps, b.lastUpdate)
	}
	b.lastUpdate = b.g.Add(&op.Op{Kind: b.optimizer, Input: dims.Clone()}, b.name(label+"/update"), deps...)
}

// input introduces a source tensor (a feed) with no producing computation;
// it is modeled as a cheap Reshape so the graph stays uniform.
func (b *builder) input(label string, dims ...int) T {
	d := op.Dims(dims)
	id := b.g.Add(&op.Op{Kind: op.Reshape, Input: d.Clone()}, b.name(label))
	return T{id, d}
}

// convert inserts an MKL layout-conversion operation (InputConversion on
// the way into MKL-DNN kernels, ToTf on the way out). These conversions
// are among the most time-consuming operations of ResNet-50 and
// Inception-v3 in the paper's Table VI.
func (b *builder) convert(in T, kind op.Kind) T {
	id := b.g.Add(&op.Op{Kind: kind, Input: in.Dims.Clone(), NumInputs: 1}, b.name(string(kind)), in.ID)
	return T{id, in.Dims}
}

// conv2d emits a convolution (optionally preceded by an InputConversion),
// and registers its backward pair: Conv2DBackpropFilter — whose output
// feeds the filter update — and Conv2DBackpropInput, which carries the
// gradient upstream. The two backprop operations are mutual siblings in
// the graph, which is precisely the co-run opportunity of Table III.
func (b *builder) conv2d(in T, kh, kw, cout, stride int, label string, convertIn bool) T {
	src := in
	if convertIn {
		src = b.convert(in, op.InputConversion)
	}
	fwd := &op.Op{
		Kind:   op.Conv2D,
		Input:  src.Dims.Clone(),
		Filter: op.Dims{kh, kw, src.Dims[3], cout},
		Stride: stride,
	}
	id := b.g.Add(fwd, b.name(label), src.ID)
	out := T{id, fwd.OutputDims()}

	b.push(func(grad T) T {
		cbf := &op.Op{Kind: op.Conv2DBackpropFilter, Input: src.Dims.Clone(), Filter: fwd.Filter.Clone(), Stride: stride}
		cbfID := b.g.Add(cbf, b.name(label+"/grad_filter"), grad.ID, src.ID)
		b.update(fwd.Filter, cbfID, label)
		cbi := &op.Op{Kind: op.Conv2DBackpropInput, Input: src.Dims.Clone(), Filter: fwd.Filter.Clone(), Stride: stride}
		cbiID := b.g.Add(cbi, b.name(label+"/grad_input"), grad.ID)
		return T{cbiID, src.Dims}
	})
	return out
}

// deconv emits a transposed convolution, implemented — as in TensorFlow —
// by the Conv2DBackpropInput kernel run forward. The DCGAN generator is
// built from these.
func (b *builder) deconv(in T, k, cout, stride int, label string) T {
	outDims := op.Dims{in.Dims[0], in.Dims[1] * stride, in.Dims[2] * stride, cout}
	fwd := &op.Op{
		Kind:   op.Conv2DBackpropInput,
		Input:  outDims, // the kernel's work is that of a conv over the larger grid
		Filter: op.Dims{k, k, cout, in.Dims[3]},
		Stride: stride,
	}
	id := b.g.Add(fwd, b.name(label), in.ID)
	out := T{id, outDims}

	b.push(func(grad T) T {
		// Gradient wrt the deconv input is a strided forward convolution
		// over the (larger) output gradient.
		gi := &op.Op{Kind: op.Conv2D, Input: outDims.Clone(), Filter: op.Dims{k, k, cout, in.Dims[3]}, Stride: stride}
		giID := b.g.Add(gi, b.name(label+"/grad_input"), grad.ID)
		cbf := &op.Op{Kind: op.Conv2DBackpropFilter, Input: outDims.Clone(), Filter: op.Dims{k, k, cout, in.Dims[3]}, Stride: stride}
		cbfID := b.g.Add(cbf, b.name(label+"/grad_filter"), grad.ID, in.ID)
		b.update(op.Dims{k, k, cout, in.Dims[3]}, cbfID, label)
		return T{giID, in.Dims}
	})
	return out
}

// batchNorm emits a FusedBatchNorm and its backward subgraph. TensorFlow's
// batch-norm gradient expands into the fused gradient kernel plus
// broadcast (Tile) and elementwise (Mul) operations — the reason Tile and
// Mul rank among ResNet-50's five most time-consuming operations in the
// paper (Table VI).
func (b *builder) batchNorm(in T, label string) T {
	c := in.Dims[len(in.Dims)-1]
	id := b.g.Add(&op.Op{Kind: op.FusedBatchNorm, Input: in.Dims.Clone()}, b.name(label), in.ID)
	out := T{id, in.Dims}

	b.push(func(grad T) T {
		bg := b.g.Add(&op.Op{Kind: op.FusedBatchNormGrad, Input: in.Dims.Clone()}, b.name(label+"/grad"), grad.ID, in.ID)
		tile := b.g.Add(&op.Op{Kind: op.Tile, Input: in.Dims.Clone(), NumInputs: 1}, b.name(label+"/tile"), bg)
		mul1 := b.g.Add(&op.Op{Kind: op.Mul, Input: in.Dims.Clone()}, b.name(label+"/mul1"), bg, tile)
		mul2 := b.g.Add(&op.Op{Kind: op.Mul, Input: in.Dims.Clone()}, b.name(label+"/mul2"), mul1, grad.ID)
		sg := b.g.Add(&op.Op{Kind: op.BiasAddGrad, Input: in.Dims.Clone()}, b.name(label+"/scale_grad"), bg)
		b.update(op.Dims{c}, sg, label+"/scale")
		b.update(op.Dims{c}, sg, label+"/shift")
		return T{mul2, in.Dims}
	})
	return out
}

// activation emits a unary activation with its gradient.
func (b *builder) activation(in T, kind, gradKind op.Kind, label string) T {
	id := b.g.Add(&op.Op{Kind: kind, Input: in.Dims.Clone()}, b.name(label), in.ID)
	out := T{id, in.Dims}
	b.push(func(grad T) T {
		gid := b.g.Add(&op.Op{Kind: gradKind, Input: in.Dims.Clone()}, b.name(label+"/grad"), grad.ID, id)
		return T{gid, in.Dims}
	})
	return out
}

func (b *builder) relu(in T, label string) T { return b.activation(in, op.Relu, op.ReluGrad, label) }
func (b *builder) tanh(in T, label string) T { return b.activation(in, op.Tanh, op.TanhGrad, label) }

// pool emits a pooling operation with its gradient.
func (b *builder) pool(in T, kind op.Kind, window int, label string) T {
	o := &op.Op{Kind: kind, Input: in.Dims.Clone(), Window: window}
	id := b.g.Add(o, b.name(label), in.ID)
	out := T{id, o.OutputDims()}
	gradKind := op.MaxPoolingGrad
	if kind == op.AvgPool {
		gradKind = op.AvgPoolGrad
	}
	b.push(func(grad T) T {
		gid := b.g.Add(&op.Op{Kind: gradKind, Input: in.Dims.Clone(), Window: window}, b.name(label+"/grad"), grad.ID, id)
		return T{gid, in.Dims}
	})
	return out
}

// matmul emits a dense layer (M,K)x(K,N) with both operand gradients.
func (b *builder) matmul(in T, n int, label string) T {
	m, k := in.Dims[0], in.Dims[1]
	fwd := &op.Op{Kind: op.MatMul, Input: op.Dims{m, k}, Filter: op.Dims{k, n}}
	id := b.g.Add(fwd, b.name(label), in.ID)
	out := T{id, op.Dims{m, n}}
	b.push(func(grad T) T {
		gw := b.g.Add(&op.Op{Kind: op.MatMul, Input: op.Dims{k, m}, Filter: op.Dims{m, n}}, b.name(label+"/grad_w"), grad.ID, in.ID)
		b.update(op.Dims{k, n}, gw, label)
		gi := b.g.Add(&op.Op{Kind: op.MatMul, Input: op.Dims{m, n}, Filter: op.Dims{n, k}}, b.name(label+"/grad_in"), grad.ID)
		return T{gi, op.Dims{m, k}}
	})
	return out
}

// biasAdd emits a bias addition with its reduction gradient.
func (b *builder) biasAdd(in T, label string) T {
	c := in.Dims[len(in.Dims)-1]
	id := b.g.Add(&op.Op{Kind: op.BiasAdd, Input: in.Dims.Clone()}, b.name(label), in.ID)
	out := T{id, in.Dims}
	b.push(func(grad T) T {
		bg := b.g.Add(&op.Op{Kind: op.BiasAddGrad, Input: in.Dims.Clone()}, b.name(label+"/grad"), grad.ID)
		b.update(op.Dims{c}, bg, label)
		return grad
	})
	return out
}

// reshape emits a cheap shape change.
func (b *builder) reshape(in T, dims ...int) T {
	d := op.Dims(dims)
	id := b.g.Add(&op.Op{Kind: op.Reshape, Input: d.Clone()}, b.name("reshape"), in.ID)
	b.push(func(grad T) T { return T{grad.ID, in.Dims} })
	return T{id, d}
}

// residual emits main(in) + shortcut(in) with an Add merge; its backward
// runs both branch tapes and merges the input gradients with AddN.
func (b *builder) residual(in T, label string, main, shortcut func(T) T) T {
	var outMain, outSC T
	tapeMain := b.scope(func() { outMain = main(in) })
	tapeSC := b.scope(func() { outSC = shortcut(in) })
	id := b.g.Add(&op.Op{Kind: op.Add, Input: outMain.Dims.Clone()}, b.name(label+"/add"), outMain.ID, outSC.ID)
	out := T{id, outMain.Dims}
	b.push(func(grad T) T {
		gMain := runTape(tapeMain, grad)
		// For an identity shortcut the tape is empty and the branch
		// gradient is `grad` itself.
		gSC := runTape(tapeSC, grad)
		merged := b.g.Add(&op.Op{Kind: op.AddN, Input: in.Dims.Clone(), NumInputs: 2},
			b.name(label+"/grad_merge"), gMain.ID, gSC.ID)
		return T{merged, in.Dims}
	})
	return out
}

// concatBranches runs each branch on in, concatenates their outputs along
// the channel axis, and registers a backward emitter that unwinds every
// branch tape and merges input gradients with AddN — the Inception module
// structure.
func (b *builder) concatBranches(in T, label string, branches ...func(T) T) T {
	outs := make([]T, len(branches))
	tapes := make([][]bwFn, len(branches))
	for i, br := range branches {
		i, br := i, br
		tapes[i] = b.scope(func() { outs[i] = br(in) })
	}
	deps := make([]graph.NodeID, len(outs))
	cTotal := 0
	for i, o := range outs {
		deps[i] = o.ID
		cTotal += o.Dims[len(o.Dims)-1]
	}
	outDims := outs[0].Dims.Clone()
	outDims[len(outDims)-1] = cTotal
	concat := &op.Op{Kind: op.Concat, Input: outs[0].Dims.Clone(), NumInputs: len(outs)}
	id := b.g.Add(concat, b.name(label+"/concat"), deps...)
	out := T{id, outDims}

	b.push(func(grad T) T {
		// Slicing the concatenated gradient back apart is itself a
		// memory operation.
		slice := b.g.Add(&op.Op{Kind: op.Concat, Input: outs[0].Dims.Clone(), NumInputs: len(outs)},
			b.name(label+"/grad_slice"), grad.ID)
		gids := make([]graph.NodeID, 0, len(tapes))
		for i := len(tapes) - 1; i >= 0; i-- {
			g := runTape(tapes[i], T{slice, outs[i].Dims})
			if g.ID != in.ID {
				gids = append(gids, g.ID)
			}
		}
		if len(gids) == 0 {
			return T{slice, in.Dims}
		}
		merged := b.g.Add(&op.Op{Kind: op.AddN, Input: in.Dims.Clone(), NumInputs: len(gids)},
			b.name(label+"/grad_merge"), gids...)
		return T{merged, in.Dims}
	})
	return out
}

// softmaxLoss emits the fused sparse-softmax cross-entropy; the same node
// yields the initial backward gradient, as in TensorFlow's fused kernel.
func (b *builder) softmaxLoss(logits T) T {
	id := b.g.Add(&op.Op{Kind: op.SparseSoftmaxCross, Input: logits.Dims.Clone()}, b.name("loss"), logits.ID)
	return T{id, logits.Dims}
}
