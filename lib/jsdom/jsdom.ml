(* The DOM-as-a-library pattern of paper Sec. 3.5: Mini classes extending the
   [JS] marker class stand in for browser objects; JIT macros turn every
   method call on them into a [Js_call] node, and the JS backend prints real
   JavaScript.  (The paper: "a macro that looks for method invocations on
   objects inheriting from JS".) *)

module C = Lancet.Compiler
module Ir = Lms.Ir

(* abstract DOM API: bodies are stubs — they only ever cross-compile *)
let dom_source =
  {|
class JS { }

class Element extends JS {
  def set_text(s: string): unit = { }
}

class Context extends JS {
  def save(): unit = { }
  def restore(): unit = { }
  def translate(x: float, y: float): unit = { }
  def rotate(r: float): unit = { }
  def moveTo(x: float, y: float): unit = { }
  def lineTo(x: float, y: float): unit = { }
  def beginPath(): unit = { }
  def closePath(): unit = { }
  def stroke(): unit = { }
}

class Canvas extends JS {
  def getContext(key: string): Context = new Context()
}

class Document extends JS {
  def getElementById(id: string): Element = new Element()
  def getCanvas(id: string): Canvas = new Canvas()
}
|}

(* Install a Js_call macro for every method of every class that inherits
   from the JS marker class (the paper's isAssignableFrom check). *)
let install rt =
  let js_cls = Vm.Classfile.find_class rt "JS" in
  Hashtbl.iter
    (fun _ (cls : Vm.Types.cls) ->
      if cls.Vm.Types.cid <> js_cls.Vm.Types.cid
         && Vm.Classfile.is_subclass cls js_cls then
        List.iter
          (fun (m : Vm.Types.meth) ->
            C.register_macro rt ~cls:cls.Vm.Types.cname ~name:m.Vm.Types.mname
              (fun ctx args ->
                let args = Array.map (C.resolve_materialized ctx) args in
                C.clobber ctx;
                C.Val
                  (C.emit ctx
                     (Ir.Ext (Lms.Js_backend.Js_call m.Vm.Types.mname))
                     args Ir.Tany)))
          cls.Vm.Types.cmethods)
    rt.Vm.Types.classes

(* Cross-compile a Mini thunk (zero-argument closure value) to JavaScript.
   The receiver objects of DOM calls appear as JS expressions; materialized
   DOM objects become "{}" literals, which is fine for code that only calls
   methods obtained from the document parameter. *)
let cross_compile rt ?(name = "kernel") (clo : Vm.Types.value) ~(nargs : int) :
    string =
  match clo with
  | Vm.Types.Obj o ->
    let apply = Vm.Classfile.resolve_virtual o.Vm.Types.ocls "apply" in
    let spec =
      Array.init (apply.Vm.Types.mnargs + 1) (fun i ->
          if i = 0 then C.Static_value clo else C.Dyn)
    in
    ignore nargs;
    let g, _ = C.stage rt apply spec in
    Lms.Js_backend.emit_function ~name g
  | _ -> Vm.Types.vm_error "cross_compile: not a closure"
